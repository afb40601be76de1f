package core

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/testutil"
)

// TestGracefulDrainUnderLiveLoad: a SIGTERM-style drain (http.Server
// Shutdown, then engine Close — the cmd/upgraded teardown order) while
// consumers are mid-dispatch must let every accepted demand finish,
// account for exactly the completed demands in monitoring, and never
// deadlock. In ModeReliability the engine records each outcome before
// responding, so the monitor's joint count must equal the number of
// responses consumers actually received — no more, no fewer.
func TestGracefulDrainUnderLiveLoad(t *testing.T) {
	testutil.CheckGoroutines(t)
	_, old := startRelease(t, "1.0", service.FaultPlan{MeanLatency: 2 * time.Millisecond})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{MeanLatency: 2 * time.Millisecond})
	e, err := New(Config{
		Releases:     []Endpoint{old, new_},
		InitialPhase: PhaseObservation,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: e.Handler(), ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	url := "http://" + ln.Addr().String()

	// Live load: workers hammer the engine until told to stop, counting
	// every response they actually received.
	var completions atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &soap.Client{URL: url, HTTP: &http.Client{Timeout: 5 * time.Second}}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				var out service.AddResponse
				if err := client.Call(context.Background(), "add", service.AddRequest{A: i, B: 1}, &out); err != nil {
					return // drain started; connection refused or reset
				}
				completions.Add(1)
			}
		}()
	}

	time.Sleep(250 * time.Millisecond) // demands are in flight now

	// Drain: Shutdown must complete within budget with workers live.
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		t.Fatalf("graceful shutdown did not drain: %v", err)
	}
	close(stop)
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	got := completions.Load()
	if got == 0 {
		t.Fatal("no demands completed before the drain — load never started")
	}
	if n := int64(e.Monitor().Joint().N); n != got {
		t.Fatalf("monitor recorded %d joint outcomes, consumers received %d responses — drain broke demand accounting", n, got)
	}
}

// TestDrainNeverChargesAbortedDemands: demands the consumer abandons
// mid-dispatch (ConsumerGone) must not be charged to the monitoring
// record — §5.2's measurement validity depends on counting only demands
// with an observable outcome.
func TestDrainNeverChargesAbortedDemands(t *testing.T) {
	testutil.CheckGoroutines(t)
	// Both releases answer correctly but 500ms late — deterministically
	// slower than the consumer's patience.
	slowRelease := func(version string) Endpoint {
		rel, err := service.New(service.DemoContract(version), service.DemoBehaviours(), service.FaultPlan{})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case <-time.After(500 * time.Millisecond):
				rel.Handler().ServeHTTP(w, r)
			case <-r.Context().Done():
			}
		}))
		t.Cleanup(ts.Close)
		return Endpoint{Version: version, URL: ts.URL}
	}
	old, new_ := slowRelease("1.0"), slowRelease("1.1")
	e, ts := startEngine(t, Config{
		Releases:     []Endpoint{old, new_},
		InitialPhase: PhaseObservation,
	})

	// Impatient consumers: every demand aborted mid-dispatch.
	for i := 0; i < 4; i++ {
		client := &soap.Client{URL: ts.URL, HTTP: &http.Client{Timeout: 50 * time.Millisecond}}
		var out service.AddResponse
		if err := client.Call(context.Background(), "add", service.AddRequest{A: i, B: 2}, &out); err == nil {
			t.Fatal("50ms consumer outwaited a 500ms release")
		}
	}
	// Let the abandoned dispatches fully resolve: the releases reply at
	// ~500ms, after which the engine discards the ConsumerGone outcomes.
	time.Sleep(900 * time.Millisecond)
	if n := e.Monitor().Joint().N; n != 0 {
		t.Fatalf("%d aborted demands were charged to the joint record", n)
	}
	// The monitor interns a release on its first recorded outcome, so
	// "unknown release" IS the never-charged state; a successful lookup
	// must still show zero demands.
	if s, err := e.Monitor().Stats(old.Version); err == nil && s.Demands != 0 {
		t.Fatalf("aborted demands charged to release stats: %+v", s)
	}

	// A patient consumer still gets served and recorded: the engine
	// survived the aborts.
	patient := &soap.Client{URL: ts.URL, HTTP: &http.Client{Timeout: 5 * time.Second}}
	var out service.AddResponse
	if err := patient.Call(context.Background(), "add", service.AddRequest{A: 20, B: 22}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Sum != 42 {
		t.Fatalf("sum = %d", out.Sum)
	}
	if n := e.Monitor().Joint().N; n != 1 {
		t.Fatalf("joint count after one completed demand = %d, want 1", n)
	}
}
