package fleet

// The front door: the fleet serves its own keep-alive demand
// connections. The second unit demand on a plain HTTP/1.1 keep-alive
// connection whose server's whole Handler is the fleet takes the
// connection over from net/http (a hijack): this demand and every later
// one on it are read by wire.ReadRequestHead and answered by
// frontWriter, straight into core.Engine.ServeDemand, so net/http's
// per-request server work is not done per demand. A connection's first
// demand stays on net/http: a connection that carries one demand would
// pay for the takeover and save nothing. Anything else that arrives on
// the connection (another method or route, chunked, Expect, Upgrade,
// "Connection: close", a head larger than the read buffer) is handed
// back, with the bytes read ahead of it, to the same http.Server through
// Serve on a one-connection listener, and keeps net/http's semantics.
// DECISIONS.md PR 42 has the conditions and the measurements.

import (
	"bufio"
	"cmp"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/textproto"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"wsupgrade/internal/core"
	"wsupgrade/internal/wire"
)

const (
	// frontBufSize is a taken-over connection's read buffer, as
	// net/http's: a request head that does not fit is handed back.
	frontBufSize = 4 << 10
	// copyMax is the largest body copied behind its head into one
	// write; a larger one goes out beside it (writev), uncopied.
	copyMax = 8 << 10
	// keepMax caps the write buffers a connection keeps between replies.
	keepMax = 16 << 10
	// discardMax is net/http's maxPostHandlerReadBytes: an unread body
	// under it is dropped before the reply, a larger one closes the
	// connection after it.
	discardMax = 256 << 10
	// seenMax bounds the connections remembered as having had a first
	// demand; past it they are forgotten, and each is taken over a demand
	// later.
	seenMax = 1 << 10
	// closeWriteMax bounds a reply that Fleet.Close waits for.
	closeWriteMax = 5 * time.Second
)

// frontDoor tracks the taken-over connections for their servers'
// Shutdown and for Fleet.Close.
type frontDoor struct {
	mu     sync.Mutex
	conns  map[*frontConn]bool   // → a demand is in flight on it
	hooked map[*http.Server]bool // servers whose Shutdown reaches here → it has begun
	seen   map[any]struct{}      // connKeys of connections net/http served a demand on
	closed bool
	left   sync.Cond // broadcast as a connection leaves or goes idle
}

func (d *frontDoor) init() {
	if d.conns == nil {
		d.conns, d.hooked, d.seen, d.left.L = map[*frontConn]bool{}, map[*http.Server]bool{}, map[any]struct{}{}, &d.mu
	}
}

// connKey tells one connection's requests apart from another's before
// the fleet holds the connection: the local address net/http keeps for
// it, a pointer of its own for each accepted TCP or Unix connection. It
// is nil for any other kind of connection, which is never taken over.
func connKey(a any) any {
	switch a.(type) {
	case *net.TCPAddr, *net.UnixAddr:
		return a
	}
	return nil
}

// again reports whether the connection key names has had a demand
// before; if not, it remembers that it has now.
func (d *frontDoor) again(key any) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.init()
	if _, ok := d.seen[key]; ok {
		delete(d.seen, key)
		return true
	}
	d.remember(key)
	return false
}

// remember notes a connection whose next demand takes it over; under mu.
func (d *frontDoor) remember(key any) {
	if len(d.seen) >= seenMax {
		clear(d.seen)
	}
	d.seen[key] = struct{}{}
}

// admit registers c, the demand that takes it over in flight; false
// once the fleet is closed.
func (d *frontDoor) admit(c *frontConn) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	c.closing = d.hooked[c.srv]
	d.conns[c] = true
	return true
}

// attach gives c its hijacked connection. The first time for c's server
// it hooks that server's Shutdown, and learns whether Shutdown has begun
// already (then Serve refuses any listener). A connection attached once
// Fleet.Close has begun is cut short as close cuts the others.
func (d *frontDoor) attach(c *frontConn, nc net.Conn) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c.nc = nc
	if _, ok := d.hooked[c.srv]; !ok {
		srv := c.srv
		srv.RegisterOnShutdown(func() { d.shutdown(srv) })
		d.hooked[srv] = srv.Serve(&handbackListener{conn: nc, taken: true}) == http.ErrServerClosed
	}
	c.closing = c.closing || d.hooked[c.srv]
	if d.closed {
		cutShort(nc)
	}
}

// cutShort is Fleet.Close's bound on a demand in flight: a body still
// arriving fails, as net/http's Close would have cut it, and the reply
// has closeWriteMax to leave. A demand whose body is in is answered, its
// dispatch bounded by the engine's own timeouts.
func cutShort(nc net.Conn) {
	_ = nc.SetReadDeadline(aLongTimeAgo)
	_ = nc.SetWriteDeadline(time.Now().Add(closeWriteMax))
}

// shutdown is a server's Shutdown hook: its idle taken-over connections
// close now, the busy ones once their demand is answered.
func (d *frontDoor) shutdown(srv *http.Server) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.hooked[srv] = true
	for c, busy := range d.conns {
		if c.srv == srv {
			c.closing = true
			if !busy {
				_ = c.nc.Close()
			}
		}
	}
}

// close is Fleet.Close's: every taken-over connection closes, a busy one
// once its demand is answered or cut short, and close waits until all
// have left.
func (d *frontDoor) close() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	for c, busy := range d.conns {
		c.closing = true
		switch {
		case c.nc == nil: // attach cuts it short
		case busy:
			cutShort(c.nc)
		default:
			_ = c.nc.Close()
		}
	}
	for len(d.conns) > 0 {
		for c, busy := range d.conns {
			if !busy { // went idle since
				_ = c.nc.Close()
			}
		}
		d.left.Wait()
	}
}

// mark records whether a demand is in flight on c; false when c is to
// close instead of going on.
func (d *frontDoor) mark(c *frontConn, busy bool) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.conns[c] = busy && !c.closing
	d.left.Broadcast()
	return !c.closing
}

func (d *frontDoor) isClosed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.closed
}

// ending reports whether c is to close once its demand is answered.
func (d *frontDoor) ending(c *frontConn) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return c.closing
}

// handingBack remembers the connection whose local address is laddr, so
// that its next demand takes it over again.
func (d *frontDoor) handingBack(laddr net.Addr) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if key := connKey(laddr); key != nil {
		d.remember(key)
	}
}

func (d *frontDoor) leave(c *frontConn) {
	d.mu.Lock()
	defer d.mu.Unlock()
	delete(d.conns, c)
	d.left.Broadcast()
}

// frontConn is one taken-over connection.
type frontConn struct {
	f       *Fleet
	srv     *http.Server
	nc      net.Conn
	in      replayConn // what br reads: the bytes read ahead of it, then nc
	br      *bufio.Reader
	head    wire.RequestHead
	body    io.LimitedReader
	ctx     connCtx
	w       frontWriter
	closing bool // under f.front.mu
	// timed: the server sets read timeouts; armed: a read deadline is set.
	timed, armed bool
	// The last target, Content-Type and adjudicator, kept while they
	// repeat so that a demand converts no bytes.
	path, ctype, adj string
}

// takeOver serves r's demand, and every later demand on its connection,
// on the fleet's own reader and writer. False leaves r to net/http: it is
// not a plain HTTP/1.1 keep-alive POST framed by Content-Length, or its
// server's Handler is not the fleet itself (a wrapped fleet is never
// taken over), or it is its connection's first demand, or the hijack
// fails.
func (f *Fleet) takeOver(w http.ResponseWriter, r *http.Request, u *Unit, rest string) bool {
	if r.ProtoMajor != 1 || r.ProtoMinor != 1 || r.Close || r.TLS != nil || r.Method != http.MethodPost ||
		len(r.TransferEncoding) > 0 || r.ContentLength < 0 || r.Header.Get("Expect") != "" || r.Header.Get("Upgrade") != "" {
		return false
	}
	srv, _ := r.Context().Value(http.ServerContextKey).(*http.Server)
	hj, ok := w.(http.Hijacker)
	key := connKey(r.Context().Value(http.LocalAddrContextKey))
	if srv == nil || srv.Handler != http.Handler(f) || !ok || key == nil || !f.front.again(key) {
		return false
	}
	c := &frontConn{f: f, srv: srv}
	if !f.front.admit(c) {
		return false
	}
	nc, brw, err := hj.Hijack()
	if err != nil {
		f.front.leave(c)
		return false
	}
	// What net/http read ahead comes first, then what a connection it was
	// handed back on still held.
	ahead, _ := brw.Reader.Peek(brw.Reader.Buffered())
	ahead = append([]byte(nil), ahead...)
	if rc, ok := nc.(*replayConn); ok {
		nc, ahead = rc.Conn, append(ahead, rc.pending...)
	}
	c.in = replayConn{Conn: nc, pending: ahead}
	f.front.attach(c, nc)
	c.br = bufio.NewReaderSize(&c.in, frontBufSize)
	c.timed = srv.ReadTimeout != 0 || srv.ReadHeaderTimeout != 0 || srv.IdleTimeout != 0
	c.armed = c.timed
	c.ctx = connCtx{c: c, base: context.WithoutCancel(r.Context()), done: make(chan struct{})}
	c.w = frontWriter{c: c, header: make(http.Header), declared: -1}
	c.serve(u, core.Demand{
		Path:        rest,
		ContentType: r.Header.Get("Content-Type"),
		Adjudicator: r.Header.Get(core.AdjudicatorHeader),
		Body:        &c.body,
		Length:      r.ContentLength,
	})
	return true
}

// serve answers d and every demand after it until the connection ends
// or is handed back; it closes a connection it keeps, also on a panic.
func (c *frontConn) serve(u *Unit, d core.Demand) {
	handedBack := false
	defer func() {
		if !handedBack {
			_ = c.nc.Close()
		}
		c.f.front.leave(c)
	}()
	for {
		c.body = io.LimitedReader{R: c.br, N: d.Length}
		if wt := c.srv.WriteTimeout; wt > 0 {
			_ = c.nc.SetWriteDeadline(time.Now().Add(wt))
		}
		u.engine.ServeDemand(&c.ctx, &c.w, d)
		if !c.w.finish() || !c.f.front.mark(c, false) {
			return
		}
		if u, handedBack = c.next(&d); u == nil {
			return
		}
	}
}

// next reads the next request head into d and returns the unit it is a
// demand of; nil when the connection ends or, handedBack, has gone back
// to net/http. The read deadlines are net/http's.
func (c *frontConn) next(d *core.Demand) (u *Unit, handedBack bool) {
	srv := c.srv
	c.arm(time.Time{}, cmp.Or(srv.IdleTimeout, srv.ReadTimeout))
	if _, err := c.br.Peek(1); err != nil {
		return nil, false
	}
	var t0 time.Time
	if c.timed {
		t0 = time.Now()
	}
	c.arm(t0, cmp.Or(srv.ReadHeaderTimeout, srv.ReadTimeout))
	ok, err := wire.ReadRequestHead(c.br, &c.head)
	if err != nil {
		return nil, false
	}
	if ok {
		host := ""
		if len(c.f.byHost) > 0 {
			host = string(c.head.Host)
		}
		u, d.Path = c.f.demandUnit(host, reuse(&c.path, c.head.Target))
	}
	if u == nil {
		return nil, c.handBack()
	}
	d.ContentType = reuse(&c.ctype, c.head.ContentType)
	d.Adjudicator = reuse(&c.adj, c.head.Adjudicator)
	d.Length = c.head.ContentLength
	_, _ = c.br.Discard(c.head.Len)
	c.arm(t0, srv.ReadTimeout)
	if !c.f.front.mark(c, true) {
		return nil, false
	}
	return u, false
}

// arm sets the read deadline to d past from (or now), or clears one left
// armed when d is 0.
func (c *frontConn) arm(from time.Time, d time.Duration) {
	switch {
	case d > 0:
		if from.IsZero() {
			from = time.Now()
		}
		_ = c.nc.SetReadDeadline(from.Add(d))
		c.armed = true
	case c.armed:
		_ = c.nc.SetReadDeadline(time.Time{})
		c.armed = false
	}
}

// reuse returns *s, first set to b's bytes when it holds others.
func reuse(s *string, b []byte) string {
	if string(b) != *s {
		*s = string(b)
	}
	return *s
}

// settle readies the connection for its next request before a reply
// goes out, or reports that it is to close after it: the consumer
// watch's read stops, and a body the engine left unread is dropped.
func (c *frontConn) settle() (closeAfter bool) {
	c.ctx.stopWatch()
	if c.ctx.Err() != nil || c.body.N >= discardMax || c.f.front.ending(c) {
		return true
	}
	if c.body.N > 0 {
		if _, err := io.Copy(io.Discard, &c.body); err != nil || c.body.N > 0 {
			return true
		}
	}
	return false
}

// handBack gives the connection, with the bytes read ahead in front of
// it, back to its server, whose next demand on it takes it over again;
// false when that server is shutting down.
func (c *frontConn) handBack() bool {
	c.f.front.handingBack(c.nc.LocalAddr())
	buf, _ := c.br.Peek(c.br.Buffered())
	ahead := append(append(make([]byte, 0, len(buf)+len(c.in.pending)), buf...), c.in.pending...)
	ln := &handbackListener{conn: &replayConn{Conn: c.nc, pending: ahead}}
	_ = c.srv.Serve(ln)
	return ln.taken
}

// replayConn is a connection whose first reads return pending.
type replayConn struct {
	net.Conn
	pending []byte
}

func (rc *replayConn) Read(p []byte) (int, error) {
	if len(rc.pending) > 0 {
		n := copy(p, rc.pending)
		rc.pending = rc.pending[n:]
		return n, nil
	}
	return rc.Conn.Read(p)
}

// handbackListener hands http.Server.Serve one connection, then ends it.
type handbackListener struct {
	conn  net.Conn
	taken bool
}

var errHandedBack = errors.New("fleet: connection handed back")

func (l *handbackListener) Accept() (net.Conn, error) {
	if l.taken {
		return nil, errHandedBack
	}
	l.taken = true
	return l.conn, nil
}

func (l *handbackListener) Close() error   { return nil }
func (l *handbackListener) Addr() net.Addr { return l.conn.LocalAddr() }

// connCtx is the context of a taken-over connection's demands, with the
// hijacked request's values, cancelled when the consumer hangs up. A
// read of its own sees that, and it starts only when dispatch's consumer
// watch arms (context.AfterFunc calls AfterFunc below), so only a demand
// that outlives the watch tick pays for it.
type connCtx struct {
	c    *frontConn
	base context.Context
	done chan struct{}

	mu       sync.Mutex
	err      error
	fns      []*func()
	readDone chan struct{} // the watch's read is in flight until closed
	stopping bool          // stopWatch has cut the watch's read short
	got      [1]byte
	gotN     int
}

func (x *connCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (x *connCtx) Done() <-chan struct{}       { return x.done }
func (x *connCtx) Value(key any) any           { return x.base.Value(key) }

func (x *connCtx) Err() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.err
}

// AfterFunc runs f when the consumer hangs up, and starts the read that
// notices it.
func (x *connCtx) AfterFunc(f func()) (stop func() bool) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.err != nil {
		go f()
		return func() bool { return false }
	}
	fp := &f
	x.fns = append(x.fns, fp)
	if x.readDone == nil {
		x.readDone = make(chan struct{})
		go x.watch()
	}
	return func() bool {
		x.mu.Lock()
		defer x.mu.Unlock()
		i := slices.Index(x.fns, fp)
		if i >= 0 {
			x.fns = slices.Delete(x.fns, i, i+1)
		}
		return i >= 0
	}
}

// watch reads one byte ahead of the connection's reader; an error but
// stopWatch's timeout is the consumer gone. Any other deadline (the
// server's ReadTimeout, Fleet.Close's cut) is for the request, which is
// in: the watch clears it and reads on.
func (x *connCtx) watch() {
	n, err := x.c.nc.Read(x.got[:])
	var ne net.Error
	timeout := errors.As(err, &ne) && ne.Timeout()
	x.mu.Lock()
	if n == 0 && timeout && !x.stopping {
		_ = x.c.nc.SetReadDeadline(time.Time{})
		x.mu.Unlock()
		x.watch()
		return
	}
	x.gotN = n
	var fns []*func()
	if err != nil && !timeout && x.err == nil {
		x.err = context.Canceled
		close(x.done)
		fns, x.fns = x.fns, nil
	}
	close(x.readDone)
	x.mu.Unlock()
	for _, f := range fns {
		(*f)()
	}
}

// stopWatch ends the watch's read, if one was started, and puts a byte
// it read in front of the connection's next read.
func (x *connCtx) stopWatch() {
	x.mu.Lock()
	done := x.readDone
	if done != nil {
		x.stopping = true
		_ = x.c.nc.SetReadDeadline(aLongTimeAgo)
	}
	x.mu.Unlock()
	if done == nil {
		return
	}
	<-done
	_ = x.c.nc.SetReadDeadline(time.Time{})
	x.c.armed = false
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.gotN == 1 {
		x.c.in.pending = append(x.c.in.pending, x.got[0])
	}
	x.readDone, x.gotN, x.stopping = nil, 0, false
}

// aLongTimeAgo is the past deadline that cuts a read short.
var aLongTimeAgo = time.Unix(1, 0)

// frontWriter is a taken-over connection's http.ResponseWriter: every
// reply is framed with a Content-Length and leaves in one write. The
// body waits for the engine to return, except one of at least copyMax
// whose length the engine declared (httpx.DeclareLength), which leaves
// as it is written.
type frontWriter struct {
	c        *frontConn
	header   http.Header
	status   int
	declared int // the length httpx.DeclareLength gave, or -1
	body     []byte
	out      []byte // the head, and a small body behind it
	sent     bool
	keep     bool // the connection serves another request
	err      error
	iov      [2][]byte
	vec      net.Buffers
	dateAt   int64 // the second date was rendered for
	date     []byte
}

func (w *frontWriter) Header() http.Header { return w.header }

// DeclareLength takes the length httpx.DeclareLength declares, in place
// of the Content-Length header net/http needs, which costs two
// allocations.
func (w *frontWriter) DeclareLength(n int) { w.declared = n }

func (w *frontWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *frontWriter) Write(p []byte) (int, error) {
	if w.sent {
		return 0, http.ErrContentLength
	}
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if len(w.body) == 0 && len(p) >= copyMax && w.declared == len(p) {
		w.send(p)
		return len(p), w.err
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// finish sends the reply if it has not left, readies the writer for the
// next one, and reports whether the connection serves another request.
func (w *frontWriter) finish() bool {
	if !w.sent {
		w.send(w.body)
	}
	keep := w.keep
	clear(w.header)
	w.status, w.declared, w.sent, w.err = 0, -1, false, nil
	w.body = trimKeep(w.body)
	return keep
}

func (w *frontWriter) send(body []byte) {
	w.sent = true
	closeAfter := w.c.settle()
	if closeAfter && w.c.f.front.isClosed() {
		_ = w.c.nc.SetWriteDeadline(time.Now().Add(closeWriteMax))
	}
	b := w.appendHead(w.out[:0], len(body), closeAfter)
	if len(body) < copyMax {
		b = append(b, body...)
		_, w.err = w.c.nc.Write(b)
	} else {
		w.iov = [2][]byte{b, body}
		w.vec = w.iov[:]
		_, w.err = w.vec.WriteTo(w.c.nc)
		w.iov = [2][]byte{}
	}
	w.out = trimKeep(b)
	w.keep = !closeAfter && w.err == nil
}

// appendHead renders the head net/http's server would send for this
// reply to a keep-alive HTTP/1.1 request.
func (w *frontWriter) appendHead(b []byte, n int, closeAfter bool) []byte {
	status := cmp.Or(w.status, http.StatusOK)
	b = strconv.AppendInt(append(b, "HTTP/1.1 "...), int64(status), 10)
	b = append(append(append(b, ' '), http.StatusText(status)...), "\r\n"...)
	for k, vv := range w.header {
		if k != "Content-Length" {
			for _, v := range vv {
				b = appendField(b, k, v)
			}
		}
	}
	if _, ok := w.header["Date"]; !ok {
		if now := time.Now(); now.Unix() != w.dateAt {
			w.date, w.dateAt = now.UTC().AppendFormat(w.date[:0], http.TimeFormat), now.Unix()
		}
		b = append(append(append(b, "Date: "...), w.date...), "\r\n"...)
	}
	b = strconv.AppendInt(append(b, "Content-Length: "...), int64(n), 10)
	if closeAfter {
		b = append(b, "\r\nConnection: close"...)
	}
	return append(b, "\r\n\r\n"...)
}

// appendField renders a header field as net/http does: the value
// trimmed, a line break in it turned into a space.
func appendField(b []byte, k, v string) []byte {
	v = textproto.TrimString(v)
	if strings.ContainsAny(v, "\r\n") {
		v = strings.NewReplacer("\r", " ", "\n", " ").Replace(v)
	}
	return append(append(append(append(b, k...), ": "...), v...), "\r\n"...)
}

// trimKeep empties b, or drops it once it has grown past keepMax.
func trimKeep(b []byte) []byte {
	if cap(b) > keepMax {
		return nil
	}
	return b[:0]
}
