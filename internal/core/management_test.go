package core

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"wsupgrade/internal/oracle"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
)

func TestSetModeOnline(t *testing.T) {
	oldRel, old := startRelease(t, "1.0", service.FaultPlan{})
	newRel, new_ := startRelease(t, "1.1", service.FaultPlan{})
	e, ts := startEngine(t, Config{Releases: []Endpoint{old, new_}})
	if e.Mode() != ModeReliability {
		t.Fatalf("default mode = %v", e.Mode())
	}
	if _, err := callAdd(t, ts.URL, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Switch to sequential online: the new release stops being invoked
	// while the old one succeeds.
	if err := e.SetMode(ModeSequential, 0); err != nil {
		t.Fatal(err)
	}
	oldCalls, newCalls := oldRel.Calls(), newRel.Calls()
	for i := 0; i < 5; i++ {
		if _, err := callAdd(t, ts.URL, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if oldRel.Calls() != oldCalls+5 {
		t.Fatalf("old calls = %d, want %d", oldRel.Calls(), oldCalls+5)
	}
	if newRel.Calls() != newCalls {
		t.Fatalf("sequential mode still fans out: new calls %d -> %d", newCalls, newRel.Calls())
	}
	// And back to parallel.
	if err := e.SetMode(ModeReliability, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := callAdd(t, ts.URL, 9, 1); err != nil {
		t.Fatal(err)
	}
	if newRel.Calls() != newCalls+1 {
		t.Fatalf("fan-out not restored: new calls %d", newRel.Calls())
	}
}

func TestSetModeValidation(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	e, _ := startEngine(t, Config{Releases: []Endpoint{old, new_}})
	if err := e.SetMode(Mode(42), 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unknown mode: %v", err)
	}
	if err := e.SetMode(ModeDynamic, 5); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("excessive quorum: %v", err)
	}
	if err := e.SetMode(ModeDynamic, 0); err != nil {
		t.Fatalf("quorum default: %v", err)
	}
	if e.Mode() != ModeDynamic {
		t.Fatalf("mode = %v", e.Mode())
	}
}

func TestSetTimeoutOnline(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	e, _ := startEngine(t, Config{Releases: []Endpoint{old}, InitialPhase: PhaseOldOnly})
	if err := e.SetTimeout(0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero timeout: %v", err)
	}
	if err := e.SetTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	if e.Timeout() != 5*time.Second {
		t.Fatalf("timeout = %v", e.Timeout())
	}
}

func TestCheckHealthMarksDownAndRecovers(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	// The new release's server will be stopped to simulate a crash.
	newRel, err := service.New(service.DemoContract("1.1"), service.DemoBehaviours(), service.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	newTS := httptest.NewServer(newRel.Handler())
	new_ := Endpoint{Version: "1.1", URL: newTS.URL}

	e, ts := startEngine(t, Config{
		Releases: []Endpoint{old, new_},
		Oracle:   oracle.Header{},
		Timeout:  500 * time.Millisecond,
	})

	ctx := context.Background()
	results := e.CheckHealth(ctx)
	for _, h := range results {
		if !h.Up {
			t.Fatalf("healthy release probed down: %+v", h)
		}
	}
	if e.Down("1.1") {
		t.Fatal("healthy release marked down")
	}

	// Crash the new release.
	newTS.Close()
	results = e.CheckHealth(ctx)
	downSeen := false
	for _, h := range results {
		if h.Release == "1.1" {
			if h.Up {
				t.Fatal("dead release probed up")
			}
			downSeen = true
		}
	}
	if !downSeen || !e.Down("1.1") {
		t.Fatal("dead release not marked down")
	}

	// Fan-outs now skip the dead release: requests stay fast and correct.
	start := time.Now()
	out, err := callAdd(t, ts.URL, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Sum != 5 {
		t.Fatalf("sum = %d", out.Sum)
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Fatalf("request waited on a down-marked release: %v", elapsed)
	}

	// Recovery: restart the release at the same address is not possible
	// with httptest, so redeploy it and probe again.
	newTS2 := httptest.NewServer(newRel.Handler())
	t.Cleanup(newTS2.Close)
	if err := e.RemoveRelease("1.1"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRelease(Endpoint{Version: "1.1", URL: newTS2.URL}); err != nil {
		t.Fatal(err)
	}
	if err := e.SetPhase(PhaseParallel); err != nil {
		t.Fatal(err)
	}
	e.CheckHealth(ctx)
	if e.Down("1.1") {
		t.Fatal("recovered release still marked down")
	}
}

// The engine must be safe under concurrent consumer traffic mixed with
// online reconfiguration (run with -race).
func TestConcurrentTrafficAndReconfiguration(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{
		Profile: relmodel.Profile{CR: 0.9, ER: 0.05, NER: 0.05}, Seed: 41})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	e, ts := startEngine(t, Config{
		Releases: []Endpoint{old, new_},
		Oracle:   oracle.Header{},
	})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_, _ = callAdd(t, ts.URL, g, i)
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		modes := []Mode{ModeResponsiveness, ModeSequential, ModeDynamic, ModeReliability}
		for i := 0; i < 20; i++ {
			_ = e.SetMode(modes[i%len(modes)], 1)
			_ = e.SetTimeout(time.Duration(1+i%3) * time.Second)
			_ = e.CheckHealth(context.Background())
		}
	}()
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Whatever interleaving happened, accounting must balance.
	joint := e.Monitor().Joint()
	if !joint.Valid() {
		t.Fatalf("joint counts inconsistent: %+v", joint)
	}
}

// Three releases: the pair for inference is (oldest, newest); the middle
// release still participates in adjudication and monitoring.
func TestThreeReleases(t *testing.T) {
	_, r0 := startRelease(t, "1.0", service.FaultPlan{})
	_, r1 := startRelease(t, "1.1", service.FaultPlan{})
	_, r2 := startRelease(t, "1.2", service.FaultPlan{})
	e, ts := startEngine(t, Config{
		Releases: []Endpoint{r0, r1, r2},
		Oracle:   oracle.Header{},
	})
	const n = 12
	for i := 0; i < n; i++ {
		out, err := callAdd(t, ts.URL, i, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out.Sum != i+1 {
			t.Fatalf("sum = %d", out.Sum)
		}
	}
	for _, v := range []string{"1.0", "1.1", "1.2"} {
		s, err := e.Stats(v)
		if err != nil {
			t.Fatal(err)
		}
		if s.Demands != n {
			t.Fatalf("%s demands = %d", v, s.Demands)
		}
	}
	// The joint record pairs 1.0 with 1.2.
	if e.Monitor().Joint().N != n {
		t.Fatalf("joint N = %d", e.Monitor().Joint().N)
	}
}

// §6.1: consumers can select the adjudication mechanism for their own
// requests via a header.
func TestPerRequestAdjudicatorHeader(t *testing.T) {
	// Three releases: two agree on the correct answer, one returns a
	// plausible wrong one. Majority must always deliver the right sum;
	// the engine default (random-valid) sometimes would not.
	_, r0 := startRelease(t, "1.0", service.FaultPlan{})
	_, r1 := startRelease(t, "1.1", service.FaultPlan{})
	_, r2 := startRelease(t, "1.2", service.FaultPlan{
		Profile: relmodel.Profile{NER: 1}, Seed: 51})
	_, ts := startEngine(t, Config{
		Releases: []Endpoint{r0, r1, r2},
		Oracle:   oracle.Header{},
	})
	client := &http.Client{Timeout: 5 * time.Second}
	for i := 0; i < 20; i++ {
		env := soap.EnvelopeRaw([]byte(`<addRequest><a>2</a><b>2</b></addRequest>`))
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/", bytes.NewReader(env))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", soap.ContentType)
		req.Header.Set(AdjudicatorHeader, "majority")
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		parsed, err := soap.Decode(body)
		if err != nil {
			t.Fatal(err)
		}
		var out service.AddResponse
		if err := parsed.DecodeBody(&out); err != nil {
			t.Fatal(err)
		}
		if out.Sum != 4 {
			t.Fatalf("majority adjudication delivered %d, want 4", out.Sum)
		}
	}
}

// A request without a known adjudicator header carries no override,
// so dispatch delivers with the engine's own rule.
func TestRequestAdjudicatorFallback(t *testing.T) {
	req, err := http.NewRequest(http.MethodPost, "http://x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if adj, ok := headerAdjudicator(req); ok {
		t.Fatalf("no header: override %s", adj.Name())
	}
	req.Header.Set(AdjudicatorHeader, "nonsense")
	if adj, ok := headerAdjudicator(req); ok {
		t.Fatalf("unknown value: override %s", adj.Name())
	}
	req.Header.Set(AdjudicatorHeader, "fastest-valid")
	if adj, ok := headerAdjudicator(req); !ok || adj.Name() != "fastest-valid" {
		t.Fatalf("explicit value: got %v, %v", adj, ok)
	}
	if adj, ok := headerAdjudicator(nil); ok {
		t.Fatalf("nil request: override %s", adj.Name())
	}
}

// §6.1: confidence in availability, read back per release.
func TestAvailabilityConfidence(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	// The "new release" is a dead endpoint: zero availability.
	e, ts := startEngine(t, Config{
		Releases: []Endpoint{old, {Version: "1.1", URL: "http://127.0.0.1:1"}},
		Timeout:  300 * time.Millisecond,
	})
	for i := 0; i < 30; i++ {
		if _, err := callAdd(t, ts.URL, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	confOld, err := e.AvailabilityConfidence("1.0", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	confNew, err := e.AvailabilityConfidence("1.1", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if confOld < 0.99 {
		t.Fatalf("confidence in the responsive release = %v, want ≈1", confOld)
	}
	if confNew > 0.01 {
		t.Fatalf("confidence in the dead release = %v, want ≈0", confNew)
	}
	if _, err := e.AvailabilityConfidence("ghost", 0.2); err == nil {
		t.Fatal("unknown release accepted")
	}
	if _, err := e.AvailabilityConfidence("1.0", 1.5); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad target: %v", err)
	}
}

// §6.1: confidence in responsiveness, per release and latency bound.
func TestResponsivenessConfidence(t *testing.T) {
	_, fast := startRelease(t, "1.0", service.FaultPlan{})
	slowRel, err := service.New(service.DemoContract("1.1"), service.DemoBehaviours(),
		service.FaultPlan{MeanLatency: 80 * time.Millisecond, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	slowTS := httptest.NewServer(slowRel.Handler())
	t.Cleanup(slowTS.Close)

	e, ts := startEngine(t, Config{
		Releases: []Endpoint{fast, {Version: "1.1", URL: slowTS.URL}},
		Timeout:  2 * time.Second,
	})
	for i := 0; i < 30; i++ {
		if _, err := callAdd(t, ts.URL, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	confFast, err := e.ResponsivenessConfidence("1.0", 50*time.Millisecond, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	confSlow, err := e.ResponsivenessConfidence("1.1", 50*time.Millisecond, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if confFast <= confSlow {
		t.Fatalf("responsiveness confidence: fast %v should exceed slow %v", confFast, confSlow)
	}
	if confFast < 0.9 {
		t.Fatalf("fast release responsiveness confidence = %v, want high", confFast)
	}
	if _, err := e.ResponsivenessConfidence("1.0", 0, 0.2); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero latency bound: %v", err)
	}
	if _, err := e.ResponsivenessConfidence("1.0", time.Second, 2); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad target: %v", err)
	}
	if _, err := e.ResponsivenessConfidence("ghost", time.Second, 0.2); err == nil {
		t.Fatal("unknown release accepted")
	}
}

// Transient transport failures are retried when a policy is configured
// (§2.1: transient failures are tolerated by retry even on the same code).
func TestRetryToleratesTransientFailures(t *testing.T) {
	flaky := newFlakyRelease(t, 2) // first 2 attempts per request: 503
	e, ts := startEngine(t, Config{
		Releases:     []Endpoint{{Version: "1.0", URL: flaky.URL}},
		InitialPhase: PhaseOldOnly,
		Retry:        retry3(),
	})
	out, err := callAdd(t, ts.URL, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if out.Sum != 9 {
		t.Fatalf("sum = %d", out.Sum)
	}
	_ = e
}
