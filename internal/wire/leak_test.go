package wire

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wsupgrade/internal/httpx"
	"wsupgrade/internal/testutil"
)

// TestClientCloseReleasesGoroutines: after Close, nothing of the client
// survives — not the janitor, not a cancellation callback, not a reader
// parked on a connection whose request was cancelled mid-flight.
func TestClientCloseReleasesGoroutines(t *testing.T) {
	testutil.CheckGoroutines(t)
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("<ok/>"))
	}))
	defer fast.Close()
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second):
		}
	}))
	defer slow.Close()

	c := NewClient(Options{})
	// Populate pools (and start the janitor) against two endpoints.
	for i := 0; i < 3; i++ {
		if _, err := c.PostXML(context.Background(), fast.URL, testCT, []byte("<in/>"), httpx.NoRetry); err != nil {
			t.Fatal(err)
		}
	}
	// Abandon a request mid-flight: the poisoned connection's teardown
	// must not orphan a goroutine.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if _, err := c.PostXML(ctx, slow.URL, testCT, []byte("<in/>"), httpx.NoRetry); err == nil {
		t.Fatal("cancelled post succeeded")
	}
	cancel()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// CheckGoroutines' cleanup does the actual assertion.
}
