// Conformance rows for the begin/end split of the exchange. PostXML is
// Begin followed by End, so the table in conformance_test.go already
// runs through both; these rows pin what only shows when something
// happens between the two — where the stale connection is noticed, that
// retries wait in End, what Begin leaves to End, and what cancellation
// between them does to the connection.
package wire

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wsupgrade/internal/httpx"
	"wsupgrade/internal/testutil"
)

// idleCount reports how many connections url's pool holds idle.
func idleCount(t *testing.T, c *Client, url string) int {
	t.Helper()
	v, ok := c.pools.Load(url)
	if !ok {
		return 0
	}
	p := v.(*pool)
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// warm runs one whole exchange so the next Begin finds an idle
// connection to write on.
func warm(t *testing.T, c *Client, url string) {
	t.Helper()
	if _, err := c.PostXML(context.Background(), url, testCT, []byte("<in/>"), httpx.NoRetry); err != nil {
		t.Fatal(err)
	}
	if n := idleCount(t, c, url); n != 1 {
		t.Fatalf("idle connections after warm-up = %d, want 1", n)
	}
}

// countingDial counts dials and lets a test break the connections it
// handed out.
type countingDial struct {
	dials      atomic.Int64
	failWrites atomic.Bool
}

func (d *countingDial) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	nc, err := defaultDial(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	return &breakableConn{Conn: nc, failWrites: &d.failWrites, serial: d.dials.Add(1)}, nil
}

// breakableConn fails writes on the first connection dialed while the
// switch is on — a keep-alive the peer dropped, noticed at the write.
type breakableConn struct {
	net.Conn
	failWrites *atomic.Bool
	serial     int64
}

func (c *breakableConn) Write(b []byte) (int, error) {
	if c.serial == 1 && c.failWrites.Load() {
		return 0, io.ErrClosedPipe
	}
	return c.Conn.Write(b)
}

func TestBeginEndStaleKeepAliveAtWrite(t *testing.T) {
	ts, cl := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("<ok/>"))
	}))
	var d countingDial
	c := NewClient(Options{Dial: d.dial})
	defer c.Close()
	warm(t, c, ts.URL)

	d.failWrites.Store(true)
	call := c.Begin(context.Background(), ts.URL, testCT, []byte("<in/>"), httpx.NoRetry)
	if call.x.cn == nil || call.x.werr == nil {
		t.Fatalf("Begin did not attempt the write on the pooled connection: %+v", call.x)
	}
	res, err := call.End()
	if err != nil {
		t.Fatalf("stale connection at the write surfaced to the caller: %v", err)
	}
	if res.Attempts != 1 || string(res.Body) != "<ok/>" {
		t.Fatalf("attempts %d body %q: the redial must not consume an attempt", res.Attempts, res.Body)
	}
	if got := d.dials.Load(); got != 2 {
		t.Fatalf("dials = %d, want 2 (one redial)", got)
	}
	if got := cl.accepts.Load(); got != 2 {
		t.Fatalf("accepts = %d, want 2", got)
	}
}

func TestBeginEndStaleKeepAliveAtFirstRead(t *testing.T) {
	// The pooled connection is stale, the request write into it still
	// succeeds, and the first read finds out.
	url, accepts, closed := newOneShotServer(t)
	c := NewClient(Options{})
	defer c.Close()
	warm(t, c, url)
	<-closed // the peer's close is on its way before the next write

	call := c.Begin(context.Background(), url, testCT, []byte("<in/>"), httpx.NoRetry)
	if call.x.cn == nil {
		t.Fatal("Begin did not write on the pooled connection")
	}
	res, err := call.End()
	if err != nil {
		t.Fatalf("stale connection at the first read surfaced to the caller: %v", err)
	}
	if res.Attempts != 1 || string(res.Body) != "<ok/>" {
		t.Fatalf("attempts %d body %q: the redial must not consume an attempt", res.Attempts, res.Body)
	}
	if got := accepts.Load(); got != 2 {
		t.Fatalf("accepts = %d, want 2 (one redial)", got)
	}
}

func TestBeginEndSecondAttemptRunsInEnd(t *testing.T) {
	var hits atomic.Int64
	ts, _ := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte("<ok/>"))
	}))
	c := NewClient(Options{})
	defer c.Close()
	warm(t, c, ts.URL)
	hits.Store(0)

	const backoff = 60 * time.Millisecond
	call := c.Begin(context.Background(), ts.URL, testCT, []byte("<in/>"),
		httpx.RetryPolicy{Attempts: 2, Backoff: backoff})
	// Begin wrote the first attempt and returned; nothing retries until
	// End is there to wait out the backoff.
	time.Sleep(2 * backoff)
	if got := hits.Load(); got != 1 {
		t.Fatalf("server hits before End = %d, want 1", got)
	}
	start := time.Now()
	res, err := call.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusOK || res.Attempts != 2 || hits.Load() != 2 {
		t.Fatalf("status %d after %d attempts (%d hits)", res.Status, res.Attempts, hits.Load())
	}
	if waited := time.Since(start); waited < backoff {
		t.Fatalf("End returned after %v: the backoff before attempt 2 did not run inside it", waited)
	}
}

// TestBeginEndDeferredCallsMatchPostXML: what Begin cannot do without
// possibly waiting on the peer it leaves whole to End, and the result is
// the one PostXML gives.
func TestBeginEndDeferredCallsMatchPostXML(t *testing.T) {
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n, _ := io.Copy(io.Discard, r.Body)
		w.Header().Set("X-Conform", "yes")
		if n > largeBodyThreshold {
			_, _ = w.Write([]byte("<big/>"))
			return
		}
		_, _ = w.Write([]byte("<ok/>"))
	})
	plain, _ := newCountingServer(t, handler)
	tls := httptest.NewTLSServer(handler)
	defer tls.Close()
	c := NewClient(Options{Fallback: tls.Client()})
	defer c.Close()

	rows := []struct {
		name    string
		url     string
		body    []byte
		warm    bool // an idle connection is there for Begin to take
		written bool // Begin wrote the request itself
	}{
		{"https", tls.URL, []byte("<in/>"), false, false},
		{"body-over-8KiB", plain.URL, []byte(strings.Repeat("x", largeBodyThreshold+1)), true, false},
		{"no-idle-connection", plain.URL + "/cold", []byte("<in/>"), false, false},
		{"body-of-8KiB", plain.URL, []byte(strings.Repeat("x", largeBodyThreshold)), true, true}, // the control row
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.warm {
				warm(t, c, row.url)
			}
			call := c.Begin(context.Background(), row.url, testCT, row.body, httpx.NoRetry)
			if written := call.x.cn != nil; written != row.written {
				t.Fatalf("request written in Begin = %v, want %v", written, row.written)
			}
			if viaFallback := call.fn != nil; viaFallback != strings.HasPrefix(row.url, "https://") {
				t.Fatalf("call handed to the fallback = %v", viaFallback)
			}
			got, err := call.End()
			if err != nil {
				t.Fatal(err)
			}
			want, err := c.PostXML(context.Background(), row.url, testCT, row.body, httpx.NoRetry)
			if err != nil {
				t.Fatal(err)
			}
			if got.Status != want.Status || string(got.Body) != string(want.Body) ||
				got.Attempts != want.Attempts || got.Header.Get("X-Conform") != want.Header.Get("X-Conform") {
				t.Fatalf("Begin+End = %d %q (%d attempts), PostXML = %d %q (%d attempts)",
					got.Status, got.Body, got.Attempts, want.Status, want.Body, want.Attempts)
			}
			got.BodyBuf.Release()
			want.BodyBuf.Release()
		})
	}
}

func TestBeginEndOnClosedClient(t *testing.T) {
	c := NewClient(Options{})
	_ = c.Close()
	call := c.Begin(context.Background(), "http://release.invalid/", testCT, []byte("<in/>"), httpx.NoRetry)
	if _, err := call.End(); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestBeginEndCancelledBetween(t *testing.T) {
	testutil.CheckGoroutines(t)
	release := make(chan struct{})
	ts, cl := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if body, _ := io.ReadAll(r.Body); string(body) == "<hold/>" {
			<-release // the cancelled exchange's reply never comes
		}
		_, _ = w.Write([]byte("<ok/>"))
	}))
	defer close(release)
	c := NewClient(Options{})
	defer c.Close()
	warm(t, c, ts.URL)

	ctx, cancel := context.WithCancel(context.Background())
	call := c.Begin(ctx, ts.URL, testCT, []byte("<hold/>"), httpx.NoRetry)
	if call.x.cn == nil {
		t.Fatal("Begin did not write on the pooled connection")
	}
	cancel()
	if _, err := call.End(); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := idleCount(t, c, ts.URL); n != 0 {
		t.Fatalf("cancelled call's connection was pooled (%d idle)", n)
	}
	// A second End is refused and touches nothing.
	if _, err := call.End(); err == nil {
		t.Fatal("second End on the same call succeeded")
	}
	// The next call dials: the half-used connection is gone.
	if _, err := c.PostXML(context.Background(), ts.URL, testCT, []byte("<in/>"), httpx.NoRetry); err != nil {
		t.Fatal(err)
	}
	if got := cl.accepts.Load(); got != 2 {
		t.Fatalf("accepts = %d, want 2 (cancelled conn must not be reused)", got)
	}
}
