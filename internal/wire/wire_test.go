package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsupgrade/internal/httpx"
	"wsupgrade/internal/testutil"
)

func TestRequestTargetAndHost(t *testing.T) {
	var gotTarget, gotHost atomic.Value
	ts, _ := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTarget.Store(r.URL.RequestURI())
		gotHost.Store(r.Host)
		_, _ = w.Write([]byte("<ok/>"))
	}))
	c := NewClient(Options{})
	defer c.Close()
	url := ts.URL + "/deep/path?q=1&x=two"
	if _, err := c.PostXML(context.Background(), url, testCT, []byte("<in/>"), httpx.NoRetry); err != nil {
		t.Fatal(err)
	}
	if gotTarget.Load() != "/deep/path?q=1&x=two" {
		t.Fatalf("request target = %q", gotTarget.Load())
	}
	if gotHost.Load() != strings.TrimPrefix(ts.URL, "http://") {
		t.Fatalf("Host = %q, want %q", gotHost.Load(), strings.TrimPrefix(ts.URL, "http://"))
	}
}

func TestConcurrentCalls(t *testing.T) {
	ts, _ := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = fmt.Fprintf(w, "<ok n=%q/>", r.Header.Get("Content-Type"))
	}))
	c := NewClient(Options{})
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := c.PostXML(context.Background(), ts.URL, testCT, []byte("<in/>"), httpx.NoRetry)
			if err != nil {
				errs <- err
				return
			}
			if res.Status != http.StatusOK {
				errs <- fmt.Errorf("status %d", res.Status)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestIdlePoolBounded(t *testing.T) {
	ts, _ := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(10 * time.Millisecond) // force concurrent conns
		_, _ = w.Write([]byte("<ok/>"))
	}))
	c := NewClient(Options{})
	c.maxIdle = 2
	defer c.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = c.PostXML(context.Background(), ts.URL, testCT, []byte("<in/>"), httpx.NoRetry)
		}()
	}
	wg.Wait()
	if idle := idleCount(t, c, ts.URL); idle > 2 {
		t.Fatalf("idle pool holds %d conns, cap 2", idle)
	}
}

func TestClientClose(t *testing.T) {
	testutil.CheckGoroutines(t)
	ts, _ := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("<ok/>"))
	}))
	c := NewClient(Options{})
	if _, err := c.PostXML(context.Background(), ts.URL, testCT, []byte("<in/>"), httpx.NoRetry); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.PostXML(context.Background(), ts.URL, testCT, []byte("<in/>"), httpx.NoRetry); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestEmptyBodyResponses(t *testing.T) {
	for _, status := range []int{http.StatusNoContent, http.StatusOK} {
		t.Run(fmt.Sprint(status), func(t *testing.T) {
			ts, cl := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.WriteHeader(status) // no body in either case
			}))
			c := NewClient(Options{})
			defer c.Close()
			for i := 0; i < 2; i++ {
				res, err := c.PostXML(context.Background(), ts.URL, testCT, []byte("<in/>"), httpx.NoRetry)
				if err != nil {
					t.Fatal(err)
				}
				if res.Status != status || len(res.Body) != 0 {
					t.Fatalf("status %d body %q", res.Status, res.Body)
				}
			}
			if got := cl.accepts.Load(); got != 1 {
				t.Fatalf("accepted %d conns, want reuse", got)
			}
		})
	}
}

// TestHeaderIsTheRepliesOwn: each result carries the header block its
// own reply arrived with, in its own buffer — later exchanges on the
// same connection change nothing about an earlier result's.
func TestHeaderIsTheRepliesOwn(t *testing.T) {
	var n atomic.Int64
	ts, cl := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Call", fmt.Sprint(n.Add(1)))
		_, _ = w.Write([]byte("<ok/>"))
	}))
	c := NewClient(Options{})
	defer c.Close()
	var results []httpx.Result
	for i := 1; i <= 3; i++ {
		res, err := c.PostXML(context.Background(), ts.URL, testCT, []byte("<in/>"), httpx.NoRetry)
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res) // held, not released
	}
	if got := cl.accepts.Load(); got != 1 {
		t.Fatalf("accepted %d connections, want the three calls on one", got)
	}
	for i, res := range results {
		if got := res.Header.Get("x-call"); got != fmt.Sprint(i+1) {
			t.Fatalf("call %d: X-Call = %q", i+1, got)
		}
		if got := res.Header.Get("Content-Type"); got == "" || string(res.Body) != "<ok/>" {
			t.Fatalf("call %d: Content-Type %q, body %q", i+1, got, res.Body)
		}
		res.BodyBuf.Release()
	}
}

// TestLargeRequestBody: a body past largeBodyThreshold, written after
// its head rather than copied into it, arrives byte-exact.
func TestLargeRequestBody(t *testing.T) {
	var want atomic.Pointer[[]byte]
	ts, _ := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b, err := httpx.ReadBounded(r.Body, 2<<20)
		if err != nil || !bytes.Equal(b, *want.Load()) {
			http.Error(w, "body mismatch", http.StatusBadRequest)
			return
		}
		_, _ = w.Write([]byte("<ok/>"))
	}))
	c := NewClient(Options{})
	defer c.Close()
	for _, n := range []int{64 << 10, 300 << 10, 1 << 20} {
		body := make([]byte, n)
		for i := range body {
			body[i] = byte('a' + i%26)
		}
		want.Store(&body)
		res, err := c.PostXML(context.Background(), ts.URL, testCT, body, httpx.NoRetry)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != http.StatusOK {
			t.Fatalf("%d-byte body: status = %d", n, res.Status)
		}
		res.BodyBuf.Release()
	}
}

func TestTimeoutBackstopWithoutContextDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ts, _ := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	c := NewClient(Options{Timeout: 80 * time.Millisecond})
	defer c.Close()
	start := time.Now()
	_, err := c.PostXML(context.Background(), ts.URL, testCT, []byte("<in/>"), httpx.NoRetry)
	if err == nil {
		t.Fatal("want timeout error")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("backstop took %v", elapsed)
	}
}

// TestIdleConnectionsReaped: a pooled connection unused past
// idleTimeout is closed by the janitor, so retired release endpoints do not hold sockets for the client's
// lifetime.
func TestIdleConnectionsReaped(t *testing.T) {
	ts, cl := newCountingServer(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("<ok/>"))
	}))
	c := NewClient(Options{})
	c.idleAge = 50 * time.Millisecond
	defer c.Close()
	if _, err := c.PostXML(context.Background(), ts.URL, testCT, []byte("<in/>"), httpx.NoRetry); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, ok := c.pools.Load(ts.URL)
		if !ok {
			t.Fatal("no pool built")
		}
		p := v.(*pool)
		p.mu.Lock()
		idle := len(p.idle)
		p.mu.Unlock()
		if idle == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("idle conn not reaped after idleTimeout (still %d pooled)", idle)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The next call must transparently re-dial.
	if _, err := c.PostXML(context.Background(), ts.URL, testCT, []byte("<in/>"), httpx.NoRetry); err != nil {
		t.Fatal(err)
	}
	if got := cl.accepts.Load(); got != 2 {
		t.Fatalf("accepted %d connections, want 2 (reap then re-dial)", got)
	}
}

// TestHeaderSectionBounded: a peer streaming endless header lines must
// exhaust the header budget, not the mediator's memory.
func TestHeaderSectionBounded(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		buf := make([]byte, 4096)
		if _, err := conn.Read(buf); err != nil {
			return
		}
		_, _ = conn.Write([]byte("HTTP/1.1 200 OK\r\n"))
		line := []byte("X-Flood: " + strings.Repeat("x", 1024) + "\r\n")
		for { // endless header lines until the client hangs up
			if _, err := conn.Write(line); err != nil {
				return
			}
		}
	}()
	c := NewClient(Options{})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_, err = c.PostXML(ctx, "http://"+ln.Addr().String()+"/", testCT, []byte("<in/>"), httpx.NoRetry)
	if err == nil || !strings.Contains(err.Error(), "header section exceeds limit") {
		t.Fatalf("err = %v, want header-section bound", err)
	}
}

func TestDialFuncSeam(t *testing.T) {
	var dialed atomic.Int64
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 4096)
				for {
					if _, err := c.Read(buf); err != nil {
						return
					}
					_, _ = c.Write([]byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n<ok/>"))
				}
			}(conn)
		}
	}()
	c := NewClient(Options{Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
		dialed.Add(1)
		if addr != "release.invalid:80" {
			return nil, fmt.Errorf("unexpected addr %q", addr)
		}
		return net.Dial("tcp", ln.Addr().String())
	}})
	defer c.Close()
	for i := 0; i < 3; i++ {
		res, err := c.PostXML(context.Background(), "http://release.invalid/", testCT, []byte("<in/>"), httpx.NoRetry)
		if err != nil {
			t.Fatal(err)
		}
		if string(res.Body) != "<ok/>" {
			t.Fatalf("body = %q", res.Body)
		}
	}
	if dialed.Load() != 1 {
		t.Fatalf("dialed %d times, want 1", dialed.Load())
	}
}

// TestHeaderLineRules: what the response reader accepts as a header
// line is what both RFC 7230 §3.2 and net/textproto accept — so that
// httpx.Header.Get can look a field up without parsing — and nothing
// looser: a reply with a line outside it is a failed exchange, not a
// guess.
func TestHeaderLineRules(t *testing.T) {
	for _, tc := range []struct {
		line     string
		ok       bool
		key, val string
	}{
		{"Content-Type: text/xml", true, "Content-Type", " text/xml"},
		{"X-Empty:", true, "X-Empty", ""},
		{"x!#$%&'*+-.^_`|~09: v", true, "x!#$%&'*+-.^_`|~09", " v"},
		{"X-Colons: a:b:c", true, "X-Colons", " a:b:c"},
		{"X-Tab:\tv\t", true, "X-Tab", "\tv\t"},
		{"X-High: caf\xc3\xa9", true, "X-High", " caf\xc3\xa9"},
		{"no colon", false, "", ""},
		{": no name", false, "", ""},
		{" X-Folded: continuation", false, "", ""},
		{"\tfolded", false, "", ""},
		{"X-Space : before colon", false, "", ""},
		{"X-(paren): v", false, "", ""},
		{"X-H\xc3\xa9: v", false, "", ""},
		{"X-Cr: a\rb", false, "", ""},
		{"X-Nul: a\x00b", false, "", ""},
		{"X-Del: a\x7fb", false, "", ""},
	} {
		key, val, ok := cutHeaderLine([]byte(tc.line))
		if ok != tc.ok || string(key) != tc.key || string(val) != tc.val {
			t.Errorf("cutHeaderLine(%q) = %q, %q, %v; want %q, %q, %v", tc.line, key, val, ok, tc.key, tc.val, tc.ok)
		}
	}
}
