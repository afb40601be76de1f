// Cancellation has one effect on a connection (conn.Poison) and two
// triggers: a context that watches its connections itself (connWatcher —
// in production the dispatcher's per-demand context) and, for any other
// context, a context.AfterFunc. Every test here is a schedule — when the
// cancellation lands relative to Begin, End and finish — run under both
// triggers, and holds the same properties: the call ends exactly once
// with the context's error, a poisoned connection is closed and never
// pooled, and a pooled connection is never poisoned afterwards.
package wire

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsupgrade/internal/httpx"
	"wsupgrade/internal/testutil"
)

// watchCtx is the reference connWatcher: a cancellable context whose
// cancel poisons the connections registered with it, all under one
// mutex.
type watchCtx struct {
	mu    sync.Mutex
	done  chan struct{}
	err   error
	conns map[interface{ Poison() }]bool
}

func newWatchCtx() *watchCtx {
	return &watchCtx{done: make(chan struct{}), conns: map[interface{ Poison() }]bool{}}
}

func (c *watchCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (c *watchCtx) Done() <-chan struct{}       { return c.done }
func (c *watchCtx) Value(any) any               { return nil }
func (c *watchCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

func (c *watchCtx) cancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return
	}
	c.err = context.Canceled
	close(c.done)
	for cn := range c.conns {
		cn.Poison()
		delete(c.conns, cn)
	}
}

func (c *watchCtx) WatchConn(cn interface{ Poison() }) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return false
	}
	c.conns[cn] = true
	return true
}

func (c *watchCtx) UnwatchConn(cn interface{ Poison() }) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.conns, cn)
}

// triggers are the two ways an exchange hears its cancellation.
var triggers = []struct {
	name string
	new  func() (context.Context, func())
}{
	{"watching-context", func() (context.Context, func()) {
		c := newWatchCtx()
		return c, c.cancel
	}},
	{"after-func", func() (context.Context, func()) {
		return context.WithCancel(context.Background())
	}},
}

// pipeServer serves canned keep-alive replies over net.Pipe. A request
// whose body is "<hold/>" is never answered.
type pipeServer struct {
	opened, closed atomic.Int64
	// reads is signalled (never blocking) whenever the client side
	// begins a Read.
	reads chan struct{}
	stop  chan struct{}
	wg    sync.WaitGroup
}

func newPipeServer(t *testing.T) *pipeServer {
	s := &pipeServer{stop: make(chan struct{}), reads: make(chan struct{}, 1)}
	t.Cleanup(func() {
		close(s.stop)
		s.wg.Wait()
	})
	return s
}

// clientConn is the client's end of a pipe. It counts its one Close —
// opened − closed connections are the ones still pooled or checked out —
// and signals each Read as it begins.
type clientConn struct {
	net.Conn
	once sync.Once
	s    *pipeServer
}

func (c *clientConn) Close() error {
	c.once.Do(func() { c.s.closed.Add(1) })
	return c.Conn.Close()
}

func (c *clientConn) Read(b []byte) (int, error) {
	select {
	case c.s.reads <- struct{}{}:
	default:
	}
	return c.Conn.Read(b)
}

func (s *pipeServer) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	client, server := net.Pipe()
	s.opened.Add(1)
	s.wg.Add(2)
	go func() { // unblock a parked read or write when the test ends
		defer s.wg.Done()
		<-s.stop
		server.Close()
	}()
	go func() {
		defer s.wg.Done()
		defer server.Close()
		br := bufio.NewReader(server)
		for {
			req, err := http.ReadRequest(br)
			if err != nil {
				return
			}
			body, err := io.ReadAll(req.Body)
			if err != nil {
				return
			}
			if string(body) == "<hold/>" {
				<-s.stop
				return
			}
			if _, err := io.WriteString(server, "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n<ok/>"); err != nil {
				return
			}
		}
	}()
	return &clientConn{Conn: client, s: s}, nil
}

const pipeURL = "http://release.invalid/"

func newPipeClient(t *testing.T) (*Client, *pipeServer) {
	s := newPipeServer(t)
	c := NewClient(Options{Dial: s.dial, IdleTimeout: -1})
	t.Cleanup(func() { _ = c.Close() })
	return c, s
}

// endCancelled ends call and requires the cancellation's error, a
// connection that was closed rather than pooled, and a second End that
// is refused.
func endCancelled(t *testing.T, c *Client, s *pipeServer, call *Call, ctx context.Context) {
	t.Helper()
	_, err := call.End()
	if err == nil || !errors.Is(err, ctx.Err()) {
		t.Fatalf("err = %v, want the context's (%v)", err, ctx.Err())
	}
	if n := idleCount(t, c, pipeURL); n != 0 {
		t.Fatalf("the cancelled call's connection was pooled (%d idle)", n)
	}
	if open := s.opened.Load() - s.closed.Load(); open != 0 {
		t.Fatalf("%d connections neither closed nor pooled", open)
	}
	if _, err := call.End(); !errors.Is(err, errNotInFlight) {
		t.Fatalf("second End: err = %v, want errNotInFlight", err)
	}
	// The client is still good: the next call dials and succeeds.
	if _, err := c.PostXML(context.Background(), pipeURL, testCT, []byte("<in/>"), httpx.NoRetry); err != nil {
		t.Fatalf("call after the cancelled one: %v", err)
	}
}

// (a) Cancelled before Begin: Begin writes into a connection that is
// poisoned at once, and End reports the cancellation.
func TestCancelBeforeBegin(t *testing.T) {
	for _, tr := range triggers {
		t.Run(tr.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			c, s := newPipeClient(t)
			warm(t, c, pipeURL)
			ctx, cancel := tr.new()
			cancel()
			call := c.Begin(ctx, pipeURL, testCT, []byte("<in/>"), httpx.NoRetry)
			if call.x.cn == nil {
				t.Fatal("Begin did not take the pooled connection")
			}
			endCancelled(t, c, s, &call, ctx)
		})
	}
}

// (b) Cancelled between Begin and End: the request is on the wire, no
// one is reading yet.
func TestCancelBetweenBeginAndEnd(t *testing.T) {
	for _, tr := range triggers {
		t.Run(tr.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			c, s := newPipeClient(t)
			warm(t, c, pipeURL)
			ctx, cancel := tr.new()
			call := c.Begin(ctx, pipeURL, testCT, []byte("<hold/>"), httpx.NoRetry)
			if call.x.cn == nil || call.x.werr != nil {
				t.Fatalf("Begin did not write on the pooled connection: %+v", call.x)
			}
			cancel()
			endCancelled(t, c, s, &call, ctx)
		})
	}
}

// (c) Cancelled during the response read: End is parked in the read the
// poison has to fail.
func TestCancelDuringResponseRead(t *testing.T) {
	for _, tr := range triggers {
		t.Run(tr.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			c, s := newPipeClient(t)
			warm(t, c, pipeURL)
			ctx, cancel := tr.new()
			call := c.Begin(ctx, pipeURL, testCT, []byte("<hold/>"), httpx.NoRetry)
			select {
			case <-s.reads: // the warm-up's
			default:
			}
			go func() {
				<-s.reads
				cancel()
			}()
			start := time.Now()
			endCancelled(t, c, s, &call, ctx)
			if waited := time.Since(start); waited > 5*time.Second {
				t.Fatalf("End outlived its cancellation by %v", waited)
			}
		})
	}
}

// (d) Cancelled while finish decides the connection's fate. Whichever
// way each race goes, a connection that reached the pool is not
// poisoned — not then, and not by the cancellation finishing later — so
// the next exchange on it succeeds; and every connection is pooled or
// closed, none lost.
func TestCancelRacingFinishNeverPoisonsPooled(t *testing.T) {
	const iterations = 10000
	for _, tr := range triggers {
		t.Run(tr.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			c, s := newPipeClient(t)
			warm(t, c, pipeURL)
			v, _ := c.pools.Load(pipeURL)
			p := v.(*pool)
			var cancelled, completed int
			for i := 0; i < iterations; i++ {
				ctx, cancel := tr.new()
				call := c.Begin(ctx, pipeURL, testCT, []byte("<in/>"), httpx.NoRetry)
				fired := make(chan struct{})
				go func() {
					defer close(fired)
					// Spread the cancellation over the few microseconds the
					// exchange takes.
					for spin := i % 64; spin > 0; spin-- {
						_ = ctx.Err()
					}
					cancel()
				}()
				res, err := call.End()
				<-fired
				switch {
				case err == nil:
					completed++
					if string(res.Body) != "<ok/>" {
						t.Fatalf("iteration %d: body %q", i, res.Body)
					}
					res.BodyBuf.Release()
				case errors.Is(err, context.Canceled):
					cancelled++
				default:
					t.Fatalf("iteration %d: err = %v, want success or the cancellation", i, err)
				}
				// The cancellation has run to completion. Whatever is pooled
				// must be untouched by it.
				p.mu.Lock()
				for _, cn := range p.idle {
					if cn.poisoned.Load() {
						p.mu.Unlock()
						t.Fatalf("iteration %d: a pooled connection is poisoned", i)
					}
				}
				p.mu.Unlock()
				res, err = c.PostXML(context.Background(), pipeURL, testCT, []byte("<in/>"), httpx.NoRetry)
				if err != nil {
					t.Fatalf("iteration %d: exchange after the race: %v", i, err)
				}
				res.BodyBuf.Release()
				if idle, open := int64(idleCount(t, c, pipeURL)), s.opened.Load()-s.closed.Load(); idle != 1 || open != 1 {
					t.Fatalf("iteration %d: %d idle, %d open connections, want 1 and 1", i, idle, open)
				}
			}
			t.Logf("%d exchanges completed, %d cancelled", completed, cancelled)
		})
	}
}

// Dialing starts no goroutine: cancellation needs none.
func TestCancelDialStartsNoGoroutine(t *testing.T) {
	c := NewClient(Options{
		IdleTimeout: -1, // no janitor either: nothing but dials may show
		Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			client, server := net.Pipe()
			t.Cleanup(func() { server.Close() })
			return client, nil
		},
	})
	defer c.Close()
	p, err := c.pool(pipeURL, testCT)
	if err != nil {
		t.Fatal(err)
	}
	base := testutil.SnapshotGoroutines()
	const n = 16
	for i := 0; i < n; i++ {
		cn, err := p.dial(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		defer cn.close()
	}
	if leaked := base.Leaked(); len(leaked) != 0 {
		t.Fatalf("dialing %d connections started %d goroutines:\n%s", n, len(leaked), leaked[0])
	}
}
