package wire

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wsupgrade/internal/httpx"
	bufpool "wsupgrade/internal/pool"
)

// respBodyPool backs response-body buffers. Ownership of each buffer
// transfers out of the transport with the exchange result (see
// Client.PostXML); the final Release — typically in dispatch after the
// reply is judged, written and recorded — recycles it here, into the
// size class its capacity has reached.
var respBodyPool bufpool.BufPool

// aLongTimeAgo is the past deadline that poisons an in-flight read.
var aLongTimeAgo = time.Unix(1, 0)

// connWatcher is a context that cancels the connections working under
// it itself, from the cancellation it already runs: dispatch's pooled
// per-demand context (wire cannot import dispatch, hence the assertion
// in begin). WatchConn registers a connection to be poisoned if the
// context is cancelled, and reports false when it already has been;
// UnwatchConn takes it back. The two and the cancellation exclude one
// another, which is the contract: once UnwatchConn has returned, the
// context never touches the connection again, so finish may pool it.
type connWatcher interface {
	WatchConn(c interface{ Poison() }) bool
	UnwatchConn(c interface{ Poison() })
}

// defaultDialer backs defaultDial when Options.Dial is nil.
var defaultDialer = &net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}

func defaultDial(ctx context.Context, network, addr string) (net.Conn, error) {
	return defaultDialer.DialContext(ctx, network, addr)
}

// pool is one endpoint's persistent-connection pool plus its precomputed
// request-head prefix.
type pool struct {
	c    *Client
	addr string // dial target host:port
	// prefix is the request head through "Content-Length: " — everything
	// that never changes per call for this endpoint: method, target,
	// Host, User-Agent and the Content-Type the pool was built with.
	// Only the length digits, the blank line and the body follow it.
	prefix []byte
	ct     string // the Content-Type baked into prefix
	// preCT/postCT rebuild the head around a different Content-Type for
	// the rare call that passes one.
	preCT, postCT string

	mu     sync.Mutex
	idle   []*conn // LIFO: the most recently used connection is hottest
	closed bool
}

func newPool(c *Client, u *url.URL, contentType string) *pool {
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	target := u.RequestURI()
	if target == "" {
		target = "/"
	}
	preCT := "POST " + target + " HTTP/1.1\r\nHost: " + u.Host +
		"\r\nUser-Agent: wsupgrade-wire\r\nContent-Type: "
	postCT := "\r\nContent-Length: "
	return &pool{
		c:      c,
		addr:   addr,
		prefix: []byte(preCT + contentType + postCT),
		ct:     contentType,
		preCT:  preCT,
		postCT: postCT,
	}
}

// getIdle checks the hottest idle connection out of the pool, or
// returns nil when there is none; it never dials.
func (p *pool) getIdle() *conn {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.idle)
	if n == 0 {
		return nil
	}
	cn := p.idle[n-1]
	p.idle = p.idle[:n-1]
	return cn
}

// get checks a connection out of the pool, dialing when none is idle.
// fresh reports a newly dialed connection (its first exchange cannot be
// a stale-keep-alive failure).
func (p *pool) get(ctx context.Context) (cn *conn, fresh bool, err error) {
	if cn := p.getIdle(); cn != nil {
		return cn, false, nil
	}
	cn, err = p.dial(ctx)
	return cn, true, err
}

func (p *pool) dial(ctx context.Context) (*conn, error) {
	nc, err := p.c.opts.Dial(ctx, "tcp", p.addr)
	if err != nil {
		return nil, fmt.Errorf("wire: dialing %s: %w", p.addr, err)
	}
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, 4096)}, nil
}

// put returns a healthy connection to the pool (or closes it when the
// pool is full or closed).
func (p *pool) put(cn *conn) {
	cn.idleSince = time.Now()
	p.mu.Lock()
	if !p.closed && len(p.idle) < p.c.opts.MaxIdlePerHost {
		p.idle = append(p.idle, cn)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	cn.close()
}

// reapIdle closes every pooled connection idle since before cutoff and
// reports how many survive. LIFO order means the stalest connections
// sit at the front of the slice.
func (p *pool) reapIdle(cutoff time.Time) int {
	p.mu.Lock()
	stale := 0
	for stale < len(p.idle) && p.idle[stale].idleSince.Before(cutoff) {
		stale++
	}
	expired := p.idle[:stale]
	p.idle = append([]*conn(nil), p.idle[stale:]...)
	n := len(p.idle)
	p.mu.Unlock()
	for _, cn := range expired {
		cn.close()
	}
	return n
}

func (p *pool) close() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, cn := range idle {
		cn.close()
	}
}

// do runs one exchange against the endpoint: the one x began, or, when
// x is zero, a whole one on a connection it checks out itself. A pooled
// connection that fails before yielding any response byte — at the
// request write or at the first read — is assumed to be a stale
// keep-alive (the peer closed it while it sat idle) and is transparently
// replaced by a fresh dial without consuming a retry attempt — matching
// net/http, which re-dials retriable requests internally.
// Ownership of the returned buffer, laid out as in exchangeResult, goes
// to the caller: one Release pairs with it (nil exactly when err is not).
//
//wsu:owns return
func (p *pool) do(ctx context.Context, x inflight, contentType string, body []byte, maxBytes int64) (status int, data *bufpool.Buf, bodyLen int, err error) {
	if x.cn == nil {
		cn, fresh, err := p.get(ctx)
		if err != nil {
			return 0, nil, 0, err
		}
		x = p.begin(ctx, cn, fresh, contentType, body)
	}
	res := p.finish(ctx, x, maxBytes)
	// The connection's deadline can fire just before the context's timer:
	// a timed-out exchange, not a stale connection, and not redialled.
	if res.err != nil && !x.fresh && !res.gotResponse && ctx.Err() == nil &&
		!errors.Is(res.err, context.DeadlineExceeded) {
		cn2, derr := p.dial(ctx)
		if derr != nil {
			return 0, nil, 0, res.err
		}
		res = p.finish(ctx, p.begin(ctx, cn2, true, contentType, body), maxBytes)
	}
	return res.status, res.data, res.bodyLen, res.err
}

// exchangeResult carries one exchange's outcome. data is a pooled buffer
// owned by whoever receives the result — the body in its first bodyLen
// bytes, the header block behind it — and non-nil exactly when err is nil.
type exchangeResult struct {
	status      int
	data        *bufpool.Buf
	bodyLen     int
	gotResponse bool // a full status line arrived
	err         error
}

// inflight is one exchange between its request write and its response
// read: the checked-out connection with its deadline set and its
// cancellation hooked up. Whoever holds one owes it a finish.
type inflight struct {
	cn    *conn
	fresh bool // cn was dialed for this exchange
	// How the exchange hears its cancellation, at most one of the two.
	watcher  connWatcher // the context poisons the connection itself
	stop     func() bool // takes back an AfterFunc(ctx, cn.Poison)
	deadline time.Time   // zero: none
	werr     error       // the request write failed; finish reports it
}

// begin opens one exchange on cn: deadline, cancellation, request
// write. A failed write is carried in the result for finish to report,
// so the connection's fate is decided in one place.
func (p *pool) begin(ctx context.Context, cn *conn, fresh bool, contentType string, body []byte) inflight {
	// Deadline: the context's, with the client Timeout as backstop.
	dl, ok := ctx.Deadline()
	if !ok {
		dl = time.Time{}
		if p.c.opts.Timeout > 0 {
			dl = time.Now().Add(p.c.opts.Timeout)
		}
	}
	_ = cn.nc.SetDeadline(dl) // the zero time clears a previous exchange's
	x := inflight{cn: cn, fresh: fresh, deadline: dl}
	// One effect — Poison — and two triggers: the dispatcher's context
	// runs it from its own cancel; under any other cancellable context an
	// AfterFunc does (it allocates; PostXML callers are off the mediated
	// path). A context already cancelled poisons the exchange here.
	switch w, watches := ctx.(connWatcher); {
	case watches && w.WatchConn(cn):
		x.watcher = w
	case watches || ctx.Err() != nil:
		cn.Poison()
	case ctx.Done() != nil:
		x.stop = context.AfterFunc(ctx, cn.Poison)
	}
	x.werr = cn.writeRequest(p, contentType, body)
	return x
}

// finish reads the response of the exchange x began. It owns the
// connection's fate: healthy and fully drained → pooled; anything else →
// closed.
func (p *pool) finish(ctx context.Context, x inflight, maxBytes int64) (res exchangeResult) {
	cn := x.cn
	reuse := false
	defer func() {
		// Take the connection back before deciding its fate, so that a
		// pooled connection is never poisoned afterwards. An AfterFunc
		// that stop could not take back has started and may poison at any
		// later moment: the connection counts as poisoned already.
		switch {
		case x.watcher != nil:
			x.watcher.UnwatchConn(cn)
		case x.stop != nil && !x.stop():
			cn.poisoned.Store(true)
		}
		if reuse && res.err == nil && !cn.poisoned.Load() {
			p.put(cn)
		} else {
			cn.close()
		}
		if res.err != nil {
			// Surface the cancellation cause so errors.Is(err,
			// context.Canceled/DeadlineExceeded) holds, as with net/http.
			// The conn deadline and the context's own timer race by a few
			// microseconds, so an expired deadline whose context has not
			// ticked yet is mapped explicitly.
			var ne net.Error
			switch {
			case ctx.Err() != nil:
				res.err = fmt.Errorf("wire: POST exchange: %w", ctx.Err())
			case !x.deadline.IsZero() && !time.Now().Before(x.deadline) && errors.As(res.err, &ne) && ne.Timeout():
				res.err = fmt.Errorf("wire: POST exchange: %w", context.DeadlineExceeded)
			}
		}
	}()

	if x.werr != nil {
		res.err = fmt.Errorf("wire: writing request: %w", x.werr)
		return res
	}
	//wsu:allow poolcheck -- ownership travels to the caller in res.data
	status, data, bodyLen, reusable, err := cn.readResponse(maxBytes)
	res.gotResponse = cn.sawStatusLine
	if err != nil {
		res.err = err
		return res
	}
	res.status = status
	res.data = data
	res.bodyLen = bodyLen
	reuse = reusable
	return res
}

// ---------------------------------------------------------------------------
// Connection

// conn is one persistent HTTP/1.1 connection with all per-exchange
// scratch state reused across calls.
type conn struct {
	nc net.Conn
	br *bufio.Reader

	wbuf     []byte      // request write scratch
	lineBuf  []byte      // long-line overflow scratch
	hdrBuf   []byte      // response header block, until it joins the body's buffer
	poisoned atomic.Bool // an exchange on it was cancelled: closed, never pooled

	// lineBudget is the remaining header-section byte budget of the
	// response being read; see maxHeaderBytes.
	lineBudget int
	// idleSince stamps the moment the connection entered the idle pool;
	// the client's janitor closes connections idle past IdleTimeout.
	idleSince time.Time

	sawStatusLine bool
}

// Poison is what cancelling an exchange does to its connection: it is
// marked, so that finish closes it, and its deadline moves into the
// past, failing the write or read the exchange is blocked in — on
// another goroutine than the canceller's, which runs this.
func (c *conn) Poison() {
	c.poisoned.Store(true)
	_ = c.nc.SetDeadline(aLongTimeAgo)
}

func (c *conn) close() { _ = c.nc.Close() }

// largeBodyThreshold: request bodies above it are written in a second
// syscall instead of being copied into the head buffer.
const largeBodyThreshold = 8 << 10

// maxConnScratch caps the per-connection scratch buffers a giant
// message may have grown; larger ones are dropped so an outlier does
// not pin memory for the connection's lifetime.
const maxConnScratch = 64 << 10

func (c *conn) writeRequest(p *pool, contentType string, body []byte) error {
	b := c.wbuf[:0]
	if contentType == p.ct {
		b = append(b, p.prefix...)
	} else {
		b = append(b, p.preCT...)
		b = append(b, contentType...)
		b = append(b, p.postCT...)
	}
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, '\r', '\n', '\r', '\n')
	small := len(body) <= largeBodyThreshold
	if small {
		b = append(b, body...)
	}
	if cap(b) <= maxConnScratch {
		c.wbuf = b[:0]
	}
	if _, err := c.nc.Write(b); err != nil {
		return err
	}
	if !small {
		if _, err := c.nc.Write(body); err != nil {
			return err
		}
	}
	return nil
}

// maxHeaderBytes bounds one response's whole non-body line section —
// status lines, headers, chunk-size lines and trailers. A release
// streaming endless header lines (or one never-terminated line) must
// exhaust this budget, not the mediator's memory: the body direction is
// bounded by RetryPolicy.MaxResponseBytes, and this is the header-side
// counterpart of net/http's MaxResponseHeaderBytes.
const maxHeaderBytes = 1 << 20

// errHeaderTooLarge reports a response whose header section exceeds
// maxHeaderBytes; the connection is unusable (mid-line) and is closed.
var errHeaderTooLarge = errors.New("wire: response header section exceeds limit")

// readLine returns the next CRLF-terminated line (without the
// terminator), valid until the next read on the connection. Every line
// draws on c.lineBudget, reset per response by readResponse.
func (c *conn) readLine() ([]byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err == nil {
		if c.lineBudget -= len(line); c.lineBudget < 0 {
			return nil, errHeaderTooLarge
		}
		return trimCRLF(line), nil
	}
	if err != bufio.ErrBufferFull {
		return nil, err
	}
	// Header line longer than the read buffer: spill into lineBuf.
	buf := append(c.lineBuf[:0], line...)
	for {
		if c.lineBudget -= len(line); c.lineBudget < 0 {
			return nil, errHeaderTooLarge
		}
		line, err = c.br.ReadSlice('\n')
		buf = append(buf, line...)
		if err == nil {
			if c.lineBudget -= len(line); c.lineBudget < 0 {
				return nil, errHeaderTooLarge
			}
			if cap(buf) <= maxConnScratch {
				c.lineBuf = buf[:0]
			}
			return trimCRLF(buf), nil
		}
		if err != bufio.ErrBufferFull {
			return nil, err
		}
	}
}

func trimCRLF(b []byte) []byte {
	if n := len(b); n > 0 && b[n-1] == '\n' {
		b = b[:n-1]
		if n > 1 && b[n-2] == '\r' {
			b = b[:n-2]
		}
	}
	return b
}

// maxInterimResponses bounds the 1xx responses skipped before the final
// status, so a misbehaving peer cannot hold an exchange in a loop.
const maxInterimResponses = 5

// readResponse parses one response. reusable reports whether the
// connection may serve another exchange. data is a pooled buffer whose
// ownership transfers to the caller (nil exactly when err is non-nil):
// the body in its first bodyLen bytes and, behind it, the final
// response's header block in httpx.Header's form — one buffer, one
// Release. Only the three headers that frame the body are interpreted.
//
//wsu:owns return
func (c *conn) readResponse(maxBytes int64) (status int, data *bufpool.Buf, bodyLen int, reusable bool, err error) {
	c.sawStatusLine = false
	c.lineBudget = maxHeaderBytes
	var proto11, connClose, chunked bool
	contentLength := int64(-1)
	var hdr []byte // the final response's header block, in c.hdrBuf
	for interim := 0; ; interim++ {
		// Status line; 1xx interim responses are skipped.
		line, err := c.readLine()
		if err != nil {
			return 0, nil, 0, false, fmt.Errorf("wire: reading status line: %w", err)
		}
		status, proto11, err = parseStatusLine(line)
		if err != nil {
			return 0, nil, 0, false, err
		}
		c.sawStatusLine = true

		// Header block: kept as the lines that arrived, each checked, with
		// the three framing-relevant headers parsed on the way.
		hdr = c.hdrBuf[:0]
		connClose, chunked, contentLength = false, false, int64(-1)
		for {
			line, err := c.readLine()
			if err != nil {
				return 0, nil, 0, false, fmt.Errorf("wire: reading header: %w", err)
			}
			if len(line) == 0 {
				break
			}
			key, val, ok := cutHeaderLine(line)
			if !ok {
				return 0, nil, 0, false, fmt.Errorf("wire: malformed header line %q", line)
			}
			hdr = append(hdr, line...)
			hdr = append(hdr, '\n')
			switch {
			case equalFold(key, "content-length"): // digits only; a repeat must agree
				n, perr := strconv.ParseUint(string(bytes.TrimSpace(val)), 10, 63)
				if perr != nil || contentLength >= 0 && contentLength != int64(n) {
					return 0, nil, 0, false, fmt.Errorf("wire: bad Content-Length %q", val)
				}
				contentLength = int64(n)
			case equalFold(key, "transfer-encoding") && proto11: // HTTP/1.0 has no codings
				if chunked || !equalFold(bytes.TrimSpace(val), "chunked") {
					return 0, nil, 0, false, fmt.Errorf("wire: unsupported Transfer-Encoding %q", val)
				}
				chunked = true
			case equalFold(key, "connection"):
				connClose = equalFold(bytes.TrimSpace(val), "close")
			}
		}
		if cap(hdr) <= maxConnScratch {
			c.hdrBuf = hdr[:0]
		}
		if status >= 200 {
			break
		}
		if interim >= maxInterimResponses {
			return 0, nil, 0, false, fmt.Errorf("wire: too many interim responses")
		}
		// 1xx interim: the next status line follows.
	}

	keepAlive := proto11 && !connClose

	// Body framing per RFC 7230 §3.3.3 (the subset a release can send).
	// Each arm returns directly so the pooled buffer it acquires flows
	// straight to the //wsu:owns return handoff, the header block
	// appended behind the body it has read.
	switch {
	case status == http.StatusNoContent || status == http.StatusNotModified:
		body := respBodyPool.Get()
		body.B = append(body.B, hdr...)
		return status, body, 0, keepAlive, nil
	case chunked:
		body, err := c.readChunkedBody(maxBytes)
		if err != nil {
			body.Release() // nil on error; Release is nil-safe
			return 0, nil, 0, false, err
		}
		n := len(body.B)
		body.B = append(body.B, hdr...)
		return status, body, n, keepAlive, nil
	case contentLength >= 0:
		if contentLength > maxBytes {
			return 0, nil, 0, false, fmt.Errorf("wire: response of %d bytes: %w", contentLength, httpx.ErrTooLarge)
		}
		// The declared length already passed the bound check, so an
		// exact read enforces it without further plumbing, into a
		// buffer of the size class that holds the body and its headers.
		n := int(contentLength)
		body := respBodyPool.GetSized(n + len(hdr))
		body.B = body.B[:n]
		if _, err := io.ReadFull(c.br, body.B); err != nil {
			body.Release()
			return 0, nil, 0, false, fmt.Errorf("wire: reading body: %w", err)
		}
		body.B = append(body.B, hdr...)
		return status, body, n, keepAlive, nil
	default:
		// No explicit framing: the body runs to connection close.
		body, err := httpx.ReadBoundedBuf(c.br, 0, maxBytes)
		if err != nil {
			body.Release() // nil on error; Release is nil-safe
			return 0, nil, 0, false, fmt.Errorf("wire: reading body: %w", err)
		}
		n := len(body.B)
		body.B = append(body.B, hdr...)
		return status, body, n, false, nil
	}
}

// readChunkedBody decodes a chunked transfer coding, bounded by maxBytes,
// into a pooled buffer the caller owns.
//
//wsu:owns return
func (c *conn) readChunkedBody(maxBytes int64) (*bufpool.Buf, error) {
	b := respBodyPool.Get()
	for {
		line, err := c.readLine()
		if err != nil {
			b.Release()
			return nil, fmt.Errorf("wire: reading chunk size: %w", err)
		}
		line = bytes.TrimRight(line, " \t")
		if i := bytes.IndexByte(line, ';'); i >= 0 {
			line = line[:i] // chunk extensions are ignored
		}
		size, err := strconv.ParseUint(string(line), 16, 63) // hex digits only
		if err != nil {
			b.Release()
			return nil, fmt.Errorf("wire: bad chunk size %q", line)
		}
		if size == 0 {
			break
		}
		if int64(size) > maxBytes-int64(len(b.B)) { // not a sum: size may be 2^63-1
			b.Release()
			return nil, fmt.Errorf("wire: chunked response: %w", httpx.ErrTooLarge)
		}
		n := len(b.B)
		if need := n + int(size); need > cap(b.B) {
			b.Grow(need) // to the class that holds the chunk
		}
		b.B = b.B[:n+int(size)]
		if _, err := io.ReadFull(c.br, b.B[n:]); err != nil {
			b.Release()
			return nil, fmt.Errorf("wire: reading chunk: %w", err)
		}
		crlf, err := c.readLine()
		if err != nil || len(crlf) != 0 {
			b.Release()
			return nil, fmt.Errorf("wire: missing chunk terminator")
		}
	}
	// Trailers (discarded) run to the blank line.
	for {
		line, err := c.readLine()
		if err != nil {
			b.Release()
			return nil, fmt.Errorf("wire: reading trailers: %w", err)
		}
		if len(line) == 0 {
			break
		}
	}
	return b, nil
}

// parseStatusLine parses "HTTP/1.x NNN reason", NNN three digits from 100 up.
func parseStatusLine(line []byte) (status int, proto11 bool, err error) {
	switch {
	case bytes.HasPrefix(line, []byte("HTTP/1.1 ")):
		proto11 = true
	case bytes.HasPrefix(line, []byte("HTTP/1.0 ")):
	default:
		return 0, false, fmt.Errorf("wire: malformed status line %q", line)
	}
	rest := line[9:]
	if len(rest) < 3 || rest[0] == '0' || len(rest) > 3 && rest[3] != ' ' {
		return 0, false, fmt.Errorf("wire: malformed status line %q", line)
	}
	for _, d := range rest[:3] {
		if d < '0' || d > '9' {
			return 0, false, fmt.Errorf("wire: malformed status line %q", line)
		}
		status = status*10 + int(d-'0')
	}
	return status, proto11, nil
}

// cutHeaderLine splits "Key: value", accepting only what RFC 7230 §3.2
// and net/textproto both accept: a name of token bytes (a folded line is
// refused, as §3.2.4 lets a gateway do), a value free of control bytes.
// Every line of an httpx.Header handed out has passed here, which is
// what lets its Get look a field up without parsing.
func cutHeaderLine(line []byte) (key, val []byte, ok bool) {
	i := bytes.IndexByte(line, ':')
	if i <= 0 {
		return nil, nil, false
	}
	for _, c := range line[:i] {
		if !tokenByte[c] {
			return nil, nil, false
		}
	}
	for _, c := range line[i+1:] {
		if c < ' ' && c != '\t' || c == 0x7f {
			return nil, nil, false
		}
	}
	return line[:i], line[i+1:], true
}

// tokenByte marks the bytes of an RFC 7230 token.
var tokenByte = func() (t [256]bool) {
	for _, c := range []byte("!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ") {
		t[c] = true
	}
	return t
}()

// equalFold reports whether b is lower under case folding.
func equalFold(b []byte, lower string) bool {
	return len(b) == len(lower) && bytes.EqualFold(b, []byte(lower))
}
