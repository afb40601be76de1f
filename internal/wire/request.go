package wire

import (
	"bufio"
	"bytes"
)

// RequestHead is a consumer request head that ReadRequestHead accepted:
// a POST to an absolute path over HTTP/1.1, keep-alive, with a Host and
// a body framed by Content-Length alone (none means an empty body). Its
// slices alias the reader's buffer and hold until the next read from it.
type RequestHead struct {
	Target        []byte // the request target: "/", then no '%', '?', '#', space or control byte
	Host          []byte
	ContentType   []byte
	Adjudicator   []byte // the X-Wsupgrade-Adjudicator value, if any
	ContentLength int64
	Len           int // the head's bytes, through its blank line
}

// ReadRequestHead waits until br buffers a whole request head and parses
// it into h. It consumes nothing: a caller that takes the request
// discards h.Len bytes and reads the body next. ok is false, with a nil
// error, for a head this reader leaves to a general server: another
// method, target form, version or framing, a repeated field it reads,
// Expect, Upgrade, "Connection: close", a bare-LF or folded line, or a
// head larger than br's buffer. err is a read error before a whole head.
// Its lines are checked as the response reader's are (cutHeaderLine);
// make fuzz holds the heads it accepts to http.ReadRequest.
func ReadRequestHead(br *bufio.Reader, h *RequestHead) (ok bool, err error) {
	n, err := bufferHead(br)
	if n == 0 {
		return false, err
	}
	buf, _ := br.Peek(n)
	*h = RequestHead{Len: n}
	line, rest := cutCRLF(buf)
	const method, proto = "POST ", " HTTP/1.1"
	if len(line) <= len(method)+len(proto) || !bytes.HasPrefix(line, []byte(method)) || !bytes.HasSuffix(line, []byte(proto)) {
		return false, nil
	}
	h.Target = line[len(method) : len(line)-len(proto)]
	if h.Target[0] != '/' || bytes.ContainsAny(h.Target, "%?#") {
		return false, nil
	}
	for _, c := range h.Target {
		if c <= ' ' || c >= 0x7f {
			return false, nil
		}
	}
	seen := 0 // a bit per field read: a repeat is refused
	for {
		if line, rest = cutCRLF(rest); line == nil {
			return false, nil // bare LF
		}
		if len(line) == 0 {
			return validHost(h.Host), nil
		}
		key, val, ok := cutHeaderLine(line)
		if !ok {
			return false, nil
		}
		val = trimOWS(val)
		bit := 0
		switch {
		case equalFold(key, "host"):
			bit, h.Host = 1, val
		case equalFold(key, "content-length"):
			bit = 2
			if h.ContentLength, ok = parseLength(val); !ok {
				return false, nil
			}
		case equalFold(key, "content-type"):
			bit, h.ContentType = 4, val
		case equalFold(key, "x-wsupgrade-adjudicator"):
			bit, h.Adjudicator = 8, val
		case equalFold(key, "transfer-encoding"), equalFold(key, "expect"), equalFold(key, "upgrade"),
			equalFold(key, "connection") && !equalFold(val, "keep-alive"):
			return false, nil
		}
		if seen&bit != 0 {
			return false, nil
		}
		seen |= bit
	}
}

// bufferHead peeks at br until it holds a blank line and returns the
// length of the head through it; 0 when br's buffer fills first or a
// read fails (err) first.
func bufferHead(br *bufio.Reader) (int, error) {
	for {
		buf, _ := br.Peek(br.Buffered())
		if n := headLen(buf); n > 0 {
			return n, nil
		}
		if len(buf) == br.Size() {
			return 0, nil
		}
		if _, err := br.Peek(len(buf) + 1); err != nil {
			return 0, err
		}
	}
}

// headLen returns the length of the head in buf through its first empty
// line, CRLF or bare LF (the parser then refuses the latter), or 0.
func headLen(buf []byte) int {
	for i := 0; ; {
		j := bytes.IndexByte(buf[i:], '\n')
		if j < 0 {
			return 0
		}
		i += j + 1
		switch {
		case i < len(buf) && buf[i] == '\n':
			return i + 1
		case i+1 < len(buf) && buf[i] == '\r' && buf[i+1] == '\n':
			return i + 2
		}
	}
}

// cutCRLF cuts the first CRLF-terminated line off b; line is nil when
// b's first line ends in a bare LF.
func cutCRLF(b []byte) (line, rest []byte) {
	i := bytes.IndexByte(b, '\n')
	if i < 1 || b[i-1] != '\r' {
		return nil, nil
	}
	return trimCRLF(b[:i+1]), b[i+1:]
}

// trimOWS trims a field value's optional white space, as net/textproto
// does: spaces and tabs only.
func trimOWS(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// parseLength parses a Content-Length of 1 to 18 digits, below 2^63.
func parseLength(b []byte) (int64, bool) {
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	return n, true
}

// validHost accepts a host name or address, with an optional port: a
// subset of what net/http's server takes, so it never serves a head that
// server would answer 400.
func validHost(b []byte) bool {
	if len(b) == 0 {
		return false
	}
	for _, c := range b {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			bytes.IndexByte([]byte("-._:[]"), c) >= 0) {
			return false
		}
	}
	return true
}
