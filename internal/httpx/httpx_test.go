package httpx

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestPostXMLHappyPath(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("Content-Type"))
		_, _ = w.Write([]byte("<ok/>"))
	}))
	defer ts.Close()
	res, err := PostXML(context.Background(), ts.Client(), ts.URL, "text/xml", []byte("<in/>"), NoRetry)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 200 || string(res.Body) != "<ok/>" || res.Attempts != 1 {
		t.Fatalf("result = %+v", res)
	}
	if got.Load() != "text/xml" {
		t.Fatalf("content type = %v", got.Load())
	}
}

func TestPostXMLRetriesTransientStatus(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		_, _ = w.Write([]byte("<ok/>"))
	}))
	defer ts.Close()
	res, err := PostXML(context.Background(), ts.Client(), ts.URL, "text/xml", nil,
		RetryPolicy{Attempts: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != 3 || res.Status != 200 {
		t.Fatalf("result = %+v", res)
	}
}

// HTTP 500 carries SOAP faults: deterministic failures that must NOT be
// retried (retrying the same code cannot fix a non-transient failure).
func TestPostXMLDoesNotRetrySOAPFaultStatus(t *testing.T) {
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "fault", http.StatusInternalServerError)
	}))
	defer ts.Close()
	res, err := PostXML(context.Background(), ts.Client(), ts.URL, "text/xml", nil,
		RetryPolicy{Attempts: 3, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != 500 {
		t.Fatalf("status = %d", res.Status)
	}
	if calls.Load() != 1 {
		t.Fatalf("500 was retried %d times", calls.Load())
	}
}

func TestPostXMLExhaustsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "busy", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	res, err := PostXML(context.Background(), ts.Client(), ts.URL, "text/xml", nil,
		RetryPolicy{Attempts: 2, Backoff: time.Millisecond})
	// The final attempt's response is returned even though it is transient.
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusServiceUnavailable || res.Attempts != 2 {
		t.Fatalf("result = %+v", res)
	}
}

func TestPostXMLTransportErrorAfterRetries(t *testing.T) {
	_, err := PostXML(context.Background(), &http.Client{Timeout: 200 * time.Millisecond},
		"http://127.0.0.1:1", "text/xml", nil, RetryPolicy{Attempts: 2, Backoff: time.Millisecond})
	if err == nil {
		t.Fatal("dead endpoint did not error")
	}
	if !strings.Contains(err.Error(), "failed after retries") {
		t.Fatalf("err = %v", err)
	}
}

func TestPostXMLHonoursContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(time.Second)
	}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := PostXML(ctx, ts.Client(), ts.URL, "text/xml", nil,
		RetryPolicy{Attempts: 5, Backoff: time.Second})
	if err == nil {
		t.Fatal("cancelled call succeeded")
	}
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("context not honoured promptly")
	}
}

func TestPolicyValidation(t *testing.T) {
	if err := (RetryPolicy{Attempts: 0}).Validate(); err == nil {
		t.Fatal("zero attempts accepted")
	}
	if err := (RetryPolicy{Attempts: 1, Backoff: -1}).Validate(); err == nil {
		t.Fatal("negative backoff accepted")
	}
	if _, err := PostXML(context.Background(), nil, "http://x", "t", nil, RetryPolicy{}); err == nil {
		t.Fatal("invalid policy accepted by PostXML")
	}
}

func TestHeaderGet(t *testing.T) {
	h := Header("Content-Type: text/xml; charset=utf-8\nX-Dup: first\nx-dup: second\nX-Empty:\nX-Padded: \t v w \t\nX-Colons: a:b\n")
	for _, tc := range []struct{ name, want string }{
		{"Content-Type", "text/xml; charset=utf-8"},
		{"content-type", "text/xml; charset=utf-8"},
		{"CONTENT-TYPE", "text/xml; charset=utf-8"},
		{"X-Dup", "first"},
		{"X-Empty", ""},
		{"X-Padded", "v w"},
		{"X-Colons", "a:b"},
		{"X-Colons: a", ""}, // a name is never more than the line's name
		{"X-Absent", ""},
		{"Content", ""},
		{"", ""},
	} {
		if got := h.Get(tc.name); got != tc.want {
			t.Errorf("Get(%q) = %q, want %q", tc.name, got, tc.want)
		}
	}
	if got := Header(nil).Get("Content-Type"); got != "" {
		t.Errorf("zero Header: Get = %q", got)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = h.Get("x-padded") }); allocs != 0 {
		t.Errorf("Get allocates %.0f times per call", allocs)
	}
}

// TestPostXMLHeaderRidesBehindBody: the net/http leg hands out the same
// Header form as the wire client, in the buffer that holds the body, and
// the body is clipped so that appending to it cannot reach the headers.
func TestPostXMLHeaderRidesBehindBody(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Add("X-Multi", "one")
		w.Header().Add("X-Multi", "two")
		_, _ = w.Write([]byte("<ok/>"))
	}))
	defer ts.Close()
	res, err := PostXML(context.Background(), ts.Client(), ts.URL, "text/xml", []byte("<in/>"), NoRetry)
	if err != nil {
		t.Fatal(err)
	}
	defer res.BodyBuf.Release()
	if string(res.Body) != "<ok/>" || cap(res.Body) != len(res.Body) {
		t.Fatalf("body %q (len %d, cap %d)", res.Body, len(res.Body), cap(res.Body))
	}
	if got := res.Header.Get("x-multi"); got != "one" {
		t.Fatalf("X-Multi = %q, want its first value", got)
	}
	if got := res.Header.Get("Content-Length"); got != "5" {
		t.Fatalf("Content-Length = %q", got)
	}
}
