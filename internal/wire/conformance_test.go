// Conformance suite: every retry/backoff/size-bound/cancellation
// behaviour of the release-call transport, asserted identically against
// the wire client and the net/http fallback (httpx.PostXML over
// httpx.NewPooledClient). The dispatch layer treats the two as
// interchangeable; this table is what makes that claim checkable.
package wire

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsupgrade/internal/httpx"
)

// postFunc is the shared transport signature both implementations
// satisfy.
type postFunc func(ctx context.Context, url, contentType string, body []byte, policy httpx.RetryPolicy) (httpx.Result, error)

// transport builds a fresh transport per test so connection-count
// assertions are isolated; close releases its pooled connections.
type transport struct {
	name string
	make func(t *testing.T) (post postFunc, close func())
}

var transports = []transport{
	{
		name: "wire",
		make: func(t *testing.T) (postFunc, func()) {
			c := NewClient(Options{})
			return c.PostXML, func() { _ = c.Close() }
		},
	},
	{
		name: "nethttp",
		make: func(t *testing.T) (postFunc, func()) {
			client := httpx.NewPooledClient(10*time.Second, 1)
			post := func(ctx context.Context, url, contentType string, body []byte, policy httpx.RetryPolicy) (httpx.Result, error) {
				return httpx.PostXML(ctx, client, url, contentType, body, policy)
			}
			return post, func() { client.CloseIdleConnections() }
		},
	},
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

// newCountingServer starts an httptest server whose accepted-connection
// count is observable.
func newCountingServer(t *testing.T, h http.Handler) (*httptest.Server, *countingListener) {
	t.Helper()
	ts := httptest.NewUnstartedServer(h)
	cl := &countingListener{Listener: ts.Listener}
	ts.Listener = cl
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, cl
}

const testCT = "text/xml; charset=utf-8"

func TestConformanceBasic(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			var gotCT, gotBody atomic.Value
			ts, _ := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				gotCT.Store(r.Header.Get("Content-Type"))
				b := make([]byte, r.ContentLength)
				_, _ = r.Body.Read(b)
				gotBody.Store(string(b))
				w.Header().Set("X-Conform", "yes")
				w.Header().Set("Content-Type", testCT)
				_, _ = w.Write([]byte("<ok/>"))
			}))
			post, closeTr := tr.make(t)
			defer closeTr()
			res, err := post(context.Background(), ts.URL, testCT, []byte("<in/>"), httpx.NoRetry)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != http.StatusOK {
				t.Fatalf("status = %d", res.Status)
			}
			if string(res.Body) != "<ok/>" {
				t.Fatalf("body = %q", res.Body)
			}
			if res.Attempts != 1 {
				t.Fatalf("attempts = %d", res.Attempts)
			}
			if got := res.Header.Get("X-Conform"); got != "yes" {
				t.Fatalf("X-Conform = %q", got)
			}
			if got := res.Header.Get("Content-Type"); got != testCT {
				t.Fatalf("response Content-Type = %q", got)
			}
			if gotCT.Load() != testCT {
				t.Fatalf("request Content-Type seen by server = %q", gotCT.Load())
			}
			if gotBody.Load() != "<in/>" {
				t.Fatalf("request body seen by server = %q", gotBody.Load())
			}
		})
	}
}

func TestConformanceRetryTransient(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			var hits atomic.Int64
			ts, _ := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if hits.Add(1) < 3 {
					http.Error(w, "busy", http.StatusServiceUnavailable)
					return
				}
				_, _ = w.Write([]byte("<ok/>"))
			}))
			post, closeTr := tr.make(t)
			defer closeTr()
			res, err := post(context.Background(), ts.URL, testCT, []byte("<in/>"),
				httpx.RetryPolicy{Attempts: 3, Backoff: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != http.StatusOK || res.Attempts != 3 {
				t.Fatalf("status %d after %d attempts", res.Status, res.Attempts)
			}
			if hits.Load() != 3 {
				t.Fatalf("server hits = %d", hits.Load())
			}
		})
	}
}

func TestConformance500IsNotTransient(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			var hits atomic.Int64
			ts, _ := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				http.Error(w, "fault", http.StatusInternalServerError)
			}))
			post, closeTr := tr.make(t)
			defer closeTr()
			res, err := post(context.Background(), ts.URL, testCT, []byte("<in/>"),
				httpx.RetryPolicy{Attempts: 3, Backoff: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			// The SOAP 1.1 binding carries deterministic faults on 500:
			// delivered, never retried.
			if res.Status != http.StatusInternalServerError || res.Attempts != 1 {
				t.Fatalf("status %d after %d attempts", res.Status, res.Attempts)
			}
			if hits.Load() != 1 {
				t.Fatalf("server hits = %d", hits.Load())
			}
		})
	}
}

func TestConformanceExhaustedRetriesReturnFinalStatus(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			var hits atomic.Int64
			ts, _ := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				http.Error(w, "busy", http.StatusServiceUnavailable)
			}))
			post, closeTr := tr.make(t)
			defer closeTr()
			start := time.Now()
			res, err := post(context.Background(), ts.URL, testCT, []byte("<in/>"),
				httpx.RetryPolicy{Attempts: 3, Backoff: 40 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			// The final attempt's transient status is delivered as-is.
			if res.Status != http.StatusServiceUnavailable || res.Attempts != 3 {
				t.Fatalf("status %d after %d attempts", res.Status, res.Attempts)
			}
			if hits.Load() != 3 {
				t.Fatalf("server hits = %d", hits.Load())
			}
			// Backoff doubles: 40ms before attempt 2, 80ms before attempt 3.
			if elapsed := time.Since(start); elapsed < 110*time.Millisecond {
				t.Fatalf("elapsed %v: backoff did not double", elapsed)
			}
		})
	}
}

func TestConformanceCancelDuringBackoff(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			var hits atomic.Int64
			ts, _ := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				http.Error(w, "busy", http.StatusServiceUnavailable)
			}))
			post, closeTr := tr.make(t)
			defer closeTr()
			ctx, cancel := context.WithCancel(context.Background())
			go func() {
				time.Sleep(50 * time.Millisecond)
				cancel()
			}()
			start := time.Now()
			_, err := post(ctx, ts.URL, testCT, []byte("<in/>"),
				httpx.RetryPolicy{Attempts: 3, Backoff: 5 * time.Second})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if !strings.Contains(err.Error(), "cancelled during backoff") {
				t.Fatalf("err = %v, want backoff-cancellation cause", err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("cancellation took %v", elapsed)
			}
			if hits.Load() != 1 {
				t.Fatalf("server hits = %d", hits.Load())
			}
		})
	}
}

func TestConformanceOversizedResponseIsTerminal(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			var hits atomic.Int64
			big := strings.Repeat("x", httpx.DefaultMaxResponseBytes+1)
			ts, _ := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				hits.Add(1)
				_, _ = w.Write([]byte(big))
			}))
			post, closeTr := tr.make(t)
			defer closeTr()
			_, err := post(context.Background(), ts.URL, testCT, []byte("<in/>"),
				httpx.RetryPolicy{Attempts: 3, Backoff: time.Millisecond})
			if !errors.Is(err, httpx.ErrTooLarge) {
				t.Fatalf("err = %v, want ErrTooLarge", err)
			}
			if hits.Load() != 1 {
				t.Fatalf("server hits = %d: oversized response must not be retried", hits.Load())
			}
		})
	}
}

func TestConformanceConnectionReuse(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			ts, cl := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				_, _ = w.Write([]byte("<ok/>"))
			}))
			post, closeTr := tr.make(t)
			defer closeTr()
			for i := 0; i < 3; i++ {
				res, err := post(context.Background(), ts.URL, testCT, []byte("<in/>"), httpx.NoRetry)
				if err != nil {
					t.Fatal(err)
				}
				if res.Status != http.StatusOK {
					t.Fatalf("status = %d", res.Status)
				}
			}
			if got := cl.accepts.Load(); got != 1 {
				t.Fatalf("accepted %d connections, want 1 (keep-alive reuse)", got)
			}
		})
	}
}

func TestConformancePoisonedConnAfterContextCancel(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			var hits atomic.Int64
			release := make(chan struct{})
			var releaseOnce sync.Once
			releaseNow := func() { releaseOnce.Do(func() { close(release) }) }
			defer releaseNow() // a failing assertion must not wedge server shutdown
			ts, cl := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if hits.Add(1) == 1 {
					<-release // hold the first exchange until cancelled
				}
				_, _ = w.Write([]byte("<ok/>"))
			}))
			post, closeTr := tr.make(t)
			defer closeTr()

			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			_, err := post(ctx, ts.URL, testCT, []byte("<in/>"), httpx.NoRetry)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want DeadlineExceeded", err)
			}
			releaseNow()

			// The cancelled exchange's connection is poisoned: the next
			// call must not be handed a half-used wire.
			res, err := post(context.Background(), ts.URL, testCT, []byte("<in/>"), httpx.NoRetry)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != http.StatusOK || string(res.Body) != "<ok/>" {
				t.Fatalf("status %d body %q", res.Status, res.Body)
			}
			if got := cl.accepts.Load(); got != 2 {
				t.Fatalf("accepted %d connections, want 2 (cancelled conn must not be reused)", got)
			}
		})
	}
}

func TestConformanceChunkedResponse(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			ts, _ := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				// Flushing before the handler returns forces chunked
				// transfer coding.
				_, _ = w.Write([]byte("<first/>"))
				w.(http.Flusher).Flush()
				_, _ = w.Write([]byte("<second/>"))
			}))
			post, closeTr := tr.make(t)
			defer closeTr()
			for i := 0; i < 2; i++ { // twice: the chunked conn must stay reusable
				res, err := post(context.Background(), ts.URL, testCT, []byte("<in/>"), httpx.NoRetry)
				if err != nil {
					t.Fatal(err)
				}
				if string(res.Body) != "<first/><second/>" {
					t.Fatalf("body = %q", res.Body)
				}
			}
		})
	}
}

func TestConformanceConnectionClose(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			ts, cl := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Connection", "close")
				_, _ = w.Write([]byte("<ok/>"))
			}))
			post, closeTr := tr.make(t)
			defer closeTr()
			for i := 0; i < 2; i++ {
				res, err := post(context.Background(), ts.URL, testCT, []byte("<in/>"), httpx.NoRetry)
				if err != nil {
					t.Fatal(err)
				}
				if string(res.Body) != "<ok/>" {
					t.Fatalf("body = %q", res.Body)
				}
			}
			if got := cl.accepts.Load(); got != 2 {
				t.Fatalf("accepted %d connections, want 2 (Connection: close honoured)", got)
			}
		})
	}
}

func TestConformanceDeadline(t *testing.T) {
	for _, tr := range transports {
		t.Run(tr.name, func(t *testing.T) {
			release := make(chan struct{})
			defer close(release)
			ts, _ := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				<-release
			}))
			post, closeTr := tr.make(t)
			defer closeTr()
			ctx, cancel := context.WithTimeout(context.Background(), 80*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := post(ctx, ts.URL, testCT, []byte("<in/>"), httpx.NoRetry)
			if err == nil {
				t.Fatal("want deadline error")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want DeadlineExceeded", err)
			}
			if elapsed := time.Since(start); elapsed > time.Second {
				t.Fatalf("deadline took %v to fire", elapsed)
			}
		})
	}
}

// newOneShotServer starts a raw HTTP server that answers one request
// per connection and then closes it without announcing the close, so
// the client's pooled connection goes stale. closed receives once per
// connection, after the close.
func newOneShotServer(t *testing.T) (url string, accepts *atomic.Int64, closed <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	const resp = "HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\nContent-Length: 5\r\n\r\n<ok/>"
	accepts = new(atomic.Int64)
	done := make(chan struct{}, 16) // more connections than any test here opens
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			go func(c net.Conn) {
				buf := make([]byte, 4096)
				if _, err := c.Read(buf); err == nil {
					_, _ = c.Write([]byte(resp))
				}
				c.Close()
				done <- struct{}{}
			}(c)
		}
	}()
	return "http://" + ln.Addr().String() + "/", accepts, done
}

// TestConformanceStaleKeepAliveRedial: a server that closes a pooled
// connection while it idles must not surface as a caller-visible
// failure, even with NoRetry — the wire client transparently redials a
// request that died before any response byte. Only the wire leg runs:
// net/http never replays a POST written on a reused connection that
// then reads EOF (POST is not idempotent — transport.go's
// shouldRetryRequest), so its leg passed or failed on a race.
func TestConformanceStaleKeepAliveRedial(t *testing.T) {
	for _, tr := range transports[:1] { // wire
		t.Run(tr.name, func(t *testing.T) {
			url, accepts, _ := newOneShotServer(t)
			post, closeTr := tr.make(t)
			defer closeTr()
			for i := 0; i < 2; i++ {
				res, err := post(context.Background(), url, testCT, []byte("<in/>"), httpx.NoRetry)
				if err != nil {
					t.Fatalf("call %d: %v", i+1, err)
				}
				if string(res.Body) != "<ok/>" {
					t.Fatalf("call %d body = %q", i+1, res.Body)
				}
			}
			if got := accepts.Load(); got != 2 {
				t.Fatalf("accepted %d connections, want 2", got)
			}
		})
	}
}

// TestWireHTTPSFallsBack: wire speaks plain HTTP only; TLS endpoints are
// delegated to the Fallback client, keeping the *http.Client seam for
// exotic deployments.
func TestWireHTTPSFallsBack(t *testing.T) {
	ts := httptest.NewTLSServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("<ok/>"))
	}))
	defer ts.Close()
	c := NewClient(Options{Fallback: ts.Client()})
	defer c.Close()
	res, err := c.PostXML(context.Background(), ts.URL, testCT, []byte("<in/>"), httpx.NoRetry)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusOK || string(res.Body) != "<ok/>" {
		t.Fatalf("status %d body %q", res.Status, res.Body)
	}
}
