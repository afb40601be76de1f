package core

// Regression tests for the request-context dispatch deadline: dispatch
// used to bound release calls with context.WithTimeout(context.Background(), …)
// so a disconnected client never cancelled an in-flight fan-out — it
// kept burning release capacity until the full engine timeout.

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"wsupgrade/internal/lifecycle"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/testutil"
)

// A consumer that hangs up mid-dispatch cancels the in-flight release
// calls promptly — the engine must not hold them to its own (much
// longer) timeout — and the aborted exchange is not charged to the
// releases' monitoring record.
func TestConsumerCancelAbortsDispatch(t *testing.T) {
	inCall := make(chan struct{}, 2)
	released := make(chan struct{})
	defer close(released)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Drain the body first: the server only notices a client abort
		// while reading, exactly like a real release runtime would.
		_, _ = io.Copy(io.Discard, r.Body)
		inCall <- struct{}{}
		select {
		case <-r.Context().Done(): // the cancellation we are testing for
		case <-released: // test teardown safety valve
		}
	}))
	defer backend.Close()

	e, err := New(Config{
		Releases: []Endpoint{
			{Version: "1.0", URL: backend.URL},
			{Version: "1.1", URL: backend.URL},
		},
		Oracle:  oracle.Header{},
		Timeout: time.Hour, // the engine timeout must NOT be what ends this
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	env := soap.EnvelopeRaw([]byte(`<addRequest><a>1</a><b>2</b></addRequest>`))
	req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(env)).WithContext(ctx)
	req.Header.Set("Content-Type", soap.ContentType)

	go func() {
		// Cancel once both releases are mid-call.
		<-inCall
		<-inCall
		cancel()
	}()

	rec := httptest.NewRecorder()
	start := time.Now()
	e.ServeHTTP(rec, req)
	elapsed := time.Since(start)

	if elapsed > 30*time.Second {
		t.Fatalf("dispatch outlived its consumer by %v", elapsed)
	}
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("cancelled request delivered HTTP %d: %s", rec.Code, rec.Body.String())
	}
	// The consumer abort is not release behaviour: nothing recorded.
	for _, v := range []string{"1.0", "1.1"} {
		if s, err := e.Stats(v); err == nil && s.Demands != 0 {
			t.Fatalf("consumer abort charged to release %s: %+v", v, s)
		}
	}
}

// The same fast-path single-target dispatch also honours the consumer's
// context.
func TestConsumerCancelAbortsFastPath(t *testing.T) {
	inCall := make(chan struct{}, 1)
	released := make(chan struct{})
	defer close(released)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		inCall <- struct{}{}
		select {
		case <-r.Context().Done():
		case <-released:
		}
	}))
	defer backend.Close()

	e, err := New(Config{
		Releases:     []Endpoint{{Version: "1.0", URL: backend.URL}},
		InitialPhase: PhaseOldOnly,
		Timeout:      time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ctx, cancel := context.WithCancel(context.Background())
	env := soap.EnvelopeRaw([]byte(`<addRequest><a>1</a><b>2</b></addRequest>`))
	req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(env)).WithContext(ctx)
	req.Header.Set("Content-Type", soap.ContentType)
	go func() {
		<-inCall
		cancel()
	}()
	rec := httptest.NewRecorder()
	start := time.Now()
	e.ServeHTTP(rec, req)
	if time.Since(start) > 30*time.Second {
		t.Fatal("fast path outlived its consumer")
	}
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("cancelled request delivered HTTP %d", rec.Code)
	}
}

// A consumer that has hung up before the dispatch's watch tick, on
// releases far slower than the tick: the fan-out is aborted at the tick,
// as a consumer cancellation charged to neither release, and each
// release connection is closed, not pooled — the release sees its
// request cancelled rather than held to its own latency. A first demand,
// answered at once, leaves both connections pooled for the aborted one.
func TestConsumerCancelBeforeWatchTickAbortsFanOut(t *testing.T) {
	const releaseLatency = 10 * time.Second
	var (
		slow           atomic.Bool
		opened, closed atomic.Int64
	)
	reply := soap.EnvelopeRaw([]byte(`<addResponse><sum>3</sum></addResponse>`))
	backend := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		if !slow.Load() {
			w.Header().Set("Content-Type", soap.ContentType)
			_, _ = w.Write(reply)
			return
		}
		select {
		case <-r.Context().Done(): // the mediator closed the connection
		case <-time.After(releaseLatency):
		}
	}))
	backend.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			opened.Add(1)
		case http.StateClosed:
			closed.Add(1)
		}
	}
	backend.Start()
	defer backend.Close()

	e, err := New(Config{
		Releases: []Endpoint{
			{Version: "1.0", URL: backend.URL},
			{Version: "1.1", URL: backend.URL},
		},
		Oracle:  oracle.Header{},
		Timeout: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	demand := func(ctx context.Context) *httptest.ResponseRecorder {
		env := soap.EnvelopeRaw([]byte(`<addRequest><a>1</a><b>2</b></addRequest>`))
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(env)).WithContext(ctx)
		req.Header.Set("Content-Type", soap.ContentType)
		rec := httptest.NewRecorder()
		e.ServeHTTP(rec, req)
		return rec
	}
	if rec := demand(context.Background()); rec.Code != http.StatusOK {
		t.Fatalf("warm-up demand: HTTP %d: %s", rec.Code, rec.Body.String())
	}

	slow.Store(true)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // gone before the first tick
	start := time.Now()
	rec := demand(ctx)
	if elapsed := time.Since(start); elapsed > releaseLatency/2 {
		t.Fatalf("dispatch outlived its consumer by %v", elapsed)
	}
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("cancelled request delivered HTTP %d: %s", rec.Code, rec.Body.String())
	}
	for _, v := range []string{"1.0", "1.1"} {
		if s, err := e.Stats(v); err != nil || s.Demands != 1 {
			t.Fatalf("release %s: %+v (%v), want the warm-up demand only", v, s, err)
		}
	}
	deadline := time.Now().Add(releaseLatency / 2)
	for closed.Load() < opened.Load() {
		if time.Now().After(deadline) {
			testutil.FatalWithStacks(t, "%d release connections opened, %d closed: an aborted exchange's connection was kept",
				opened.Load(), closed.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// An engine-timeout abort, by contrast, IS release behaviour: the
// non-responding release must be charged a missed demand.
func TestEngineTimeoutStillRecorded(t *testing.T) {
	released := make(chan struct{})
	defer close(released)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-released:
		}
	}))
	defer backend.Close()

	e, err := New(Config{
		Releases:     []Endpoint{{Version: "1.0", URL: backend.URL}},
		InitialPhase: PhaseOldOnly,
		Timeout:      50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	env := soap.EnvelopeRaw([]byte(`<addRequest><a>1</a><b>2</b></addRequest>`))
	req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(env))
	req.Header.Set("Content-Type", soap.ContentType)
	rec := httptest.NewRecorder()
	e.ServeHTTP(rec, req)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("timed-out request delivered HTTP %d", rec.Code)
	}
	s, err := e.Stats("1.0")
	if err != nil {
		t.Fatal(err)
	}
	if s.Demands != 1 || s.Responses != 0 {
		t.Fatalf("timeout not charged: %+v", s)
	}
}

// OnTransition hooks observe manual, policy and topology transitions.
func TestOnTransitionHooks(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	e, err := New(Config{Releases: []Endpoint{old}, InitialPhase: PhaseOldOnly})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	events := make(chan string, 4)
	e.OnTransition(func(tr lifecycle.Transition) {
		events <- tr.From.String() + ">" + tr.To.String() + ":" + tr.Cause.String()
	})
	if err := e.AddRelease(Endpoint{Version: "1.1", URL: "http://b.invalid"}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetPhase(PhaseParallel); err != nil {
		t.Fatal(err)
	}
	if got := <-events; got != "old-only>parallel:manual" {
		t.Fatalf("manual transition event = %q", got)
	}
	// Topology-forced: removing below two releases collapses to NewOnly.
	if err := e.RemoveRelease("1.1"); err != nil {
		t.Fatal(err)
	}
	if got := <-events; got != "parallel>new-only:topology" {
		t.Fatalf("topology transition event = %q", got)
	}
}
