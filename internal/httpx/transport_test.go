package httpx

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A release streaming more than the configured cap must fail the
// exchange instead of growing the proxy's heap without bound.
func TestPostXMLRejectsOversizedResponse(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 1<<16+1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(big)
	}))
	defer ts.Close()
	_, err := PostXML(context.Background(), ts.Client(), ts.URL, "text/xml", nil,
		RetryPolicy{Attempts: 1, MaxResponseBytes: 1 << 16})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized response returned %v, want ErrTooLarge", err)
	}
}

// A body exactly at the cap is fine.
func TestPostXMLAcceptsResponseAtCap(t *testing.T) {
	exact := bytes.Repeat([]byte("x"), 1<<12)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write(exact)
	}))
	defer ts.Close()
	res, err := PostXML(context.Background(), ts.Client(), ts.URL, "text/xml", nil,
		RetryPolicy{Attempts: 1, MaxResponseBytes: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Body) != len(exact) {
		t.Fatalf("body length = %d, want %d", len(res.Body), len(exact))
	}
}

// With no explicit cap the default 10 MB bound applies — the unbounded
// io.ReadAll this replaces let one misbehaving release OOM the proxy.
func TestPostXMLDefaultResponseCap(t *testing.T) {
	chunk := bytes.Repeat([]byte("x"), 1<<20)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		for written := int64(0); written <= DefaultMaxResponseBytes; written += int64(len(chunk)) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer ts.Close()
	_, err := PostXML(context.Background(), ts.Client(), ts.URL, "text/xml", nil, NoRetry)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-default response returned %v, want ErrTooLarge", err)
	}
}

// An oversized response is deterministic, not transient: it must not be
// retried.
func TestPostXMLDoesNotRetryOversizedResponse(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		_, _ = w.Write(bytes.Repeat([]byte("x"), 2048))
	}))
	defer ts.Close()
	_, err := PostXML(context.Background(), ts.Client(), ts.URL, "text/xml", nil,
		RetryPolicy{Attempts: 3, Backoff: time.Millisecond, MaxResponseBytes: 1024})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("oversized response retried: %d calls", calls.Load())
	}
}

func TestPolicyRejectsNegativeResponseCap(t *testing.T) {
	if err := (RetryPolicy{Attempts: 1, MaxResponseBytes: -1}).Validate(); err == nil {
		t.Fatal("negative response cap accepted")
	}
}

func TestReadBounded(t *testing.T) {
	data, err := ReadBounded(strings.NewReader("hello"), 5)
	if err != nil || string(data) != "hello" {
		t.Fatalf("ReadBounded = %q, %v", data, err)
	}
	if _, err := ReadBounded(strings.NewReader("hello!"), 5); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("over-limit read returned %v, want ErrTooLarge", err)
	}
	// The returned slice is caller-owned: a second read through the same
	// pooled buffer must not corrupt it.
	first, err := ReadBounded(strings.NewReader("first"), 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBounded(strings.NewReader("XXXXX"), 64); err != nil {
		t.Fatal(err)
	}
	if string(first) != "first" {
		t.Fatalf("pooled buffer reuse corrupted earlier result: %q", first)
	}
}

// The pooled client must keep enough idle connections per release host
// that a warm fan-out burst re-dials nothing. http.DefaultTransport
// (2 idle conns per host) fails this: the second burst re-dials most of
// its connections.
func TestPooledClientReusesConnections(t *testing.T) {
	const burst = 8
	// The first burst's requests are held until all have arrived, so the
	// cold round opens exactly burst connections however the goroutines
	// are scheduled.
	var arrived atomic.Int32
	allIn := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if arrived.Add(1) == burst {
			close(allIn)
		}
		<-allIn
		_, _ = w.Write([]byte("<ok/>"))
	}))
	defer ts.Close()
	client := NewPooledClient(5*time.Second, 1)

	round := func() int32 {
		var dialed atomic.Int32
		var wg sync.WaitGroup
		for i := 0; i < burst; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				trace := &httptrace.ClientTrace{
					ConnectStart: func(network, addr string) { dialed.Add(1) },
				}
				ctx := httptrace.WithClientTrace(context.Background(), trace)
				res, err := PostXML(ctx, client, ts.URL, "text/xml", []byte("<in/>"), NoRetry)
				if err != nil {
					t.Error(err)
					return
				}
				if res.Status != http.StatusOK {
					t.Errorf("status = %d", res.Status)
				}
			}()
		}
		wg.Wait()
		return dialed.Load()
	}

	if cold := round(); cold == 0 {
		t.Fatal("cold pool dialed nothing")
	}
	// net/http parks a connection as idle just after its reply's last
	// byte is handed over, so a burst that starts at once can beat a
	// connection to the pool; a starved pool (2 idle per host) would
	// re-dial most of every burst.
	warm := round()
	for try := 0; warm != 0 && try < 3; try++ {
		time.Sleep(10 * time.Millisecond)
		warm = round()
	}
	if warm != 0 {
		t.Fatalf("warm pool dialed %d new connections; the per-host idle pool is starved", warm)
	}
}

func TestPooledClientTransportTuning(t *testing.T) {
	client := NewPooledClient(time.Second, 3)
	transport, ok := client.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("transport is %T, want *http.Transport", client.Transport)
	}
	if transport.MaxIdleConnsPerHost != DefaultMaxIdleConnsPerHost {
		t.Fatalf("MaxIdleConnsPerHost = %d", transport.MaxIdleConnsPerHost)
	}
	if transport.MaxIdleConns != 3*DefaultMaxIdleConnsPerHost {
		t.Fatalf("MaxIdleConns = %d", transport.MaxIdleConns)
	}
	if client.Timeout != time.Second {
		t.Fatalf("timeout = %v", client.Timeout)
	}
}

// Backoff doubles per further attempt: the second attempt waits Backoff,
// the third 2×, the fourth 4×.
func TestBackoffDoubling(t *testing.T) {
	p := RetryPolicy{Attempts: 4, Backoff: 50 * time.Millisecond}
	for attempt, want := range map[int]time.Duration{
		2: 50 * time.Millisecond,
		3: 100 * time.Millisecond,
		4: 200 * time.Millisecond,
	} {
		if got := p.backoffFor(attempt); got != want {
			t.Errorf("backoffFor(%d) = %v, want %v", attempt, got, want)
		}
	}
}

// Cancelling the context while PostXML sleeps between attempts must
// return promptly rather than finishing the backoff.
func TestPostXMLCancelledDuringBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	start := time.Now()
	_, err := PostXML(ctx, ts.Client(), ts.URL, "text/xml", nil,
		RetryPolicy{Attempts: 3, Backoff: 10 * time.Second})
	if err == nil {
		t.Fatal("cancelled call succeeded")
	}
	if !strings.Contains(err.Error(), "cancelled during backoff") {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; backoff was not interrupted", elapsed)
	}
}
