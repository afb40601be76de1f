package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/textproto"
	"strings"
	"testing"

	"wsupgrade/internal/httpx"
)

// FuzzHeaderGet holds the header block readResponse hands out, and
// httpx.Header's lookup in it, to net/textproto's reader: whatever
// block the wire reader accepts the reference accepts too, every field
// the reference parsed is found with the reference's (first) value
// under any spelling of its name, a name the block does not carry is
// not found, and a lookup stays inside the block. The wire reader is
// the stricter of the two by design (no folded lines, no blank before
// the colon), so a block only the reference accepts is not a finding.
func FuzzHeaderGet(f *testing.F) {
	for _, seed := range []string{
		"Content-Type: text/xml; charset=utf-8\r\nContent-Length: 0",
		"Date: Sat, 26 Sep 2026 10:00:00 GMT\r\nX-Wsupgrade-Injected: NER\r\nContent-Length: 0",
		"x-a: 1\r\nX-A: 2\r\nX-a:3",
		"X-Empty:\r\nX-Blank:   \t \r\nX-Padded: \t v \t ",
		"X-Folded: a\r\n b\r\nX-After: c",
		" X-Leading: blank",
		"X-Space : before-colon",
		"No-Colon-Here",
		": no-name",
		"X-Ctl: a\x00b",
		"X-Cr: a\rb",
		"X-High: caf\xc3\xa9\r\nX-Colon: a:b:c",
		"Bare-Lf: 1\nNext: 2",
		"Content-Length: 3\r\n\r\nabc",
		"Transfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
		"X-Stop: 1\r\n\r\nX-Body: not-a-header",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, block []byte) {
		tail := append(append([]byte(nil), block...), "\r\n\r\n"...)
		c := &conn{br: bufio.NewReaderSize(bytes.NewReader(append([]byte("HTTP/1.1 200 OK\r\n"), tail...)), 4096)}
		_, data, n, _, err := c.readResponse(1 << 20)
		if err != nil {
			return
		}
		defer data.Release()
		want, err := textproto.NewReader(bufio.NewReader(bytes.NewReader(tail))).ReadMIMEHeader()
		if err != nil {
			t.Fatalf("the wire reader accepted a block net/textproto rejects (%v): %q", err, block)
		}

		// The lookups run on a copy with a decoy field right behind it in
		// the same array: reading past the block would find it.
		const decoy = "X-Past-The-Block"
		padded := append(append([]byte(nil), data.B[n:]...), decoy+": found\n"...)
		hdr := httpx.Header(padded[:len(data.B)-n])

		fields := 0
		for name, values := range want {
			fields += len(values)
			for _, spelling := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
				if got := hdr.Get(spelling); got != values[0] {
					t.Fatalf("Get(%q) = %q, net/textproto has %q, in %q", spelling, got, values[0], block)
				}
			}
		}
		if lines := bytes.Count(hdr, []byte("\n")); lines != fields {
			t.Fatalf("the block holds %d lines, net/textproto parsed %d fields, in %q", lines, fields, block)
		}
		if _, there := want[decoy]; !there {
			if got := hdr.Get(decoy); got != "" {
				t.Fatalf("Get read past the block: %q", got)
			}
		}
		if got := hdr.Get("X-Not-In-Any-Corpus-0f3a"); got != "" && want.Get("X-Not-In-Any-Corpus-0f3a") == "" {
			t.Fatalf("Get found %q under a name the block does not carry, in %q", got, block)
		}
	})
}

// refResponse is net/http's reading of one response off br, the way a
// client of a release reads it: interim 1xx responses skipped, the body
// read to its end but no further than maxBytes+1.
func refResponse(br *bufio.Reader, maxBytes int64) (status int, header http.Header, body []byte, err error) {
	for {
		resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodPost})
		if err != nil {
			return 0, nil, nil, err
		}
		if resp.StatusCode/100 == 1 {
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxBytes+1))
		if err == nil && int64(len(body)) > maxBytes {
			err = httpx.ErrTooLarge
		}
		return resp.StatusCode, resp.Header, body, err
	}
}

// laxerByDesign lists net/http's reasons for refusing a chunked body
// the wire reader takes: it holds chunk-size, terminator and trailer
// lines to CRLF and to MIME syntax, and caps their length, their share
// of the stream and a size's digits, where the wire reader takes a bare
// LF and leading zeros, discards trailers unparsed and charges all of
// them to the one maxHeaderBytes budget.
// None of it changes which bytes are the body when both accept.
var laxerByDesign = []string{
	"chunked line ends with bare LF", "invalid CR in chunked line", "malformed chunked encoding",
	"header line too long", "too much non-data", "suspiciously long trailer", "chunk length too large",
	"malformed MIME header", "invalid header", "unexpected EOF reading trailer",
}

// diffResponse reads stream as one response with the wire reader and
// with net/http and fails on any disagreement the package does not
// document: the wire reader accepting what the reference refuses, or a
// different status, body or header value when both accept, a body past
// maxBytes, or — on a connection the wire reader would reuse — a
// different idea of where the response ends. wellFormed says the stream
// was rendered by the harness, and so must be accepted when bodyLen is
// within maxBytes.
func diffResponse(t *testing.T, stream []byte, maxBytes int64, wellFormed bool, bodyLen int) {
	c := &conn{br: bufio.NewReaderSize(bytes.NewReader(stream), 4096)}
	status, data, n, reusable, err := c.readResponse(maxBytes)
	refBuf := bufio.NewReader(bytes.NewReader(stream))
	refStatus, refHeader, refBody, refErr := refResponse(refBuf, maxBytes)
	if err != nil {
		if data != nil {
			t.Fatalf("a buffer came back beside the error %v", err)
		}
		switch {
		case !wellFormed:
		case int64(bodyLen) <= maxBytes:
			t.Fatalf("the wire reader refuses a well-formed response (%v; net/http: %v): %.300q", err, refErr, stream)
		case !errors.Is(err, httpx.ErrTooLarge):
			t.Fatalf("a %d-byte body over the %d-byte bound is refused as %v, not ErrTooLarge", bodyLen, maxBytes, err)
		}
		return
	}
	defer data.Release()
	if int64(n) > maxBytes {
		t.Fatalf("accepted a %d-byte body over the %d-byte bound", n, maxBytes)
	}
	if refErr != nil {
		chunked := bytes.Contains(bytes.ToLower(stream), []byte("chunked"))
		for _, reason := range laxerByDesign {
			if chunked && strings.Contains(refErr.Error(), reason) {
				return
			}
		}
		t.Fatalf("the wire reader accepts what net/http refuses (%v): %.300q", refErr, stream)
	}
	if status != refStatus || !bytes.Equal(data.B[:n], refBody) {
		t.Fatalf("status %d and %d body bytes, net/http has %d and %d, for %.300q", status, n, refStatus, len(refBody), stream)
	}
	hdr := httpx.Header(data.B[n:])
	for name, values := range refHeader {
		// net/http adds a Cache-Control of its own to a Pragma: no-cache.
		if name == "Cache-Control" && hdr.Get("Pragma") != "" && hdr.Get(name) == "" {
			continue
		}
		if got := hdr.Get(name); got != values[0] {
			t.Fatalf("header %s = %q, net/http has %q, in %.300q", name, got, values[0], stream)
		}
	}
	if reusable {
		rest, _ := io.ReadAll(c.br)
		refRest, _ := io.ReadAll(refBuf)
		if !bytes.Equal(rest, refRest) {
			t.Fatalf("%d bytes follow the response, net/http leaves %d, in %.300q", len(rest), len(refRest), stream)
		}
	}
}

// FuzzReadResponse holds (*conn).readResponse to http.ReadResponse on
// the same bytes, twice over. The fuzzed bytes as they are: whatever
// the wire reader accepts the reference accepts, with the same status,
// body and header values and the same end of message (it is the
// stricter reader on header syntax by design, see FuzzHeaderGet, so
// only that direction binds). And the fuzzed bytes as a body, rendered
// in each framing a release can answer in — Content-Length, chunked in
// pieces that walk the buffer up its size classes, and to end of
// stream — with another response behind it: there both must accept,
// unless the body is over the bound, which is ErrTooLarge.
func FuzzReadResponse(f *testing.F) {
	big := strings.Repeat("<pad>z9Qk</pad>", 65<<10/15)
	for _, seed := range []struct {
		raw   string
		limit uint32
		piece uint16
	}{
		// The conformance suite's replies, as net/http frames them.
		{"HTTP/1.1 200 OK\r\nX-Conform: yes\r\nContent-Type: text/xml; charset=utf-8\r\nContent-Length: 5\r\n\r\n<ok/>", 1 << 20, 7},
		{"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n", 1 << 20, 1},
		{"HTTP/1.1 500 Internal Server Error\r\nContent-Type: text/plain\r\nContent-Length: 4\r\n\r\nboom", 1 << 20, 3},
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n8\r\n<first/>\r\n9\r\n<second/>\r\n0\r\n\r\n", 1 << 20, 8},
		{"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n<ok/>", 1 << 20, 2},
		{"HTTP/1.1 204 No Content\r\n\r\n", 1 << 20, 1},
		{"HTTP/1.1 200 OK\r\nContent-Length: 2048\r\n\r\n" + big[:2048], 1024, 100}, // oversized is terminal
		{"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n<ok/>", 1 << 20, 5},
		// A 64 KB reply: the sized read, and chunks that outgrow four classes.
		{big, 1 << 20, 4000},
		{big, 60 << 10, 65535},
		// Framing the two readers could take differently.
		{"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Length: 5\r\n\r\nabcde", 1 << 20, 1},
		{"HTTP/1.1 200 OK\r\nContent-Length: +3\r\n\r\nabc", 1 << 20, 1},
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: gzip, chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n", 1 << 20, 1},
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 1\r\n\r\n3;ext=1\r\nabc\r\n0\r\nX-Trailer: t\r\n\r\n", 1 << 20, 1},
		{"HTTP/1.0 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n", 1 << 20, 1},
		{"HTTP/1.1 2000 OK\r\nContent-Length: 0\r\n\r\n", 1 << 20, 1},
		{"HTTP/1.1 099 Odd\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", 1 << 20, 1},
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n+3\r\nabc\r\n0\r\n\r\n", 1 << 20, 1},
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\nabc\n0\n\n", 1 << 20, 1},
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n1\r\na\r\n7fffffffffffffff\r\nb", 1 << 20, 1},
		{"HTTP/1.1 304 Not Modified\r\nContent-Length: 9\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n", 1 << 20, 1},
	} {
		f.Add([]byte(seed.raw), seed.limit, seed.piece)
	}
	const next = "HTTP/1.1 299 Next\r\nContent-Length: 4\r\n\r\nnext"
	f.Fuzz(func(t *testing.T, raw []byte, limit uint32, piece uint16) {
		maxBytes := int64(limit % (1<<20 + 1))
		diffResponse(t, raw, maxBytes, false, 0)

		const head = "HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nX-Wsupgrade-Injected: NER\r\n"
		sized := fmt.Sprintf("%sContent-Length: %d\r\n\r\n%s%s", head, len(raw), raw, next)
		chunked := []byte(head + "Transfer-Encoding: chunked\r\n\r\n")
		for rest, size := raw, int(piece)+1; len(rest) > 0; size *= 2 {
			size = min(size, len(rest))
			chunked = fmt.Appendf(chunked, "%x\r\n%s\r\n", size, rest[:size])
			rest = rest[size:]
		}
		chunked = append(chunked, "0\r\n\r\n"+next...)
		toEOF := head + "\r\n" + string(raw)
		for _, stream := range [][]byte{[]byte(sized), chunked, []byte(toEOF)} {
			diffResponse(t, stream, maxBytes, true, len(raw))
		}
	})
}
