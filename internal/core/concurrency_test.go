package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wsupgrade/internal/lifecycle"
	"wsupgrade/internal/monitor"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
)

// TestManagementVersusDispatchStress hammers the dispatch hot path while
// every management operation (phase transitions, mode changes, timeout
// changes, online release add/remove, health checks) runs concurrently.
// Run with -race. Afterwards the accounting must balance exactly: one
// monitor record per served request (none lost to a state swap), a valid
// joint record, and a consistent final state.
func TestManagementVersusDispatchStress(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	_, extra := startRelease(t, "1.2", service.FaultPlan{})

	var sink bytes.Buffer
	e, err := New(Config{
		Releases: []Endpoint{old, new_},
		Oracle:   oracle.Header{},
		Store:    &sink,
	})
	if err != nil {
		t.Fatal(err)
	}

	const (
		trafficGoroutines  = 6
		requestsPerRoutine = 30
	)
	env := soap.EnvelopeRaw([]byte(`<addRequest><a>2</a><b>3</b></addRequest>`))

	var wg sync.WaitGroup
	managementDone := make(chan struct{})

	// Management churn: phases, modes, timeouts, topology, health.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(managementDone)
		phases := []Phase{PhaseObservation, PhaseOldOnly, PhaseNewOnly, PhaseParallel}
		modes := []Mode{ModeResponsiveness, ModeDynamic, ModeSequential, ModeReliability}
		for i := 0; i < 40; i++ {
			// Concurrent managers race for the phase, so some requested
			// transitions are illegal by the time they are applied; the
			// lifecycle guard must reject exactly those, with its typed
			// error, and nothing else.
			if err := e.SetPhase(phases[i%len(phases)]); err != nil &&
				!errors.Is(err, lifecycle.ErrIllegalTransition) {
				t.Errorf("SetPhase: %v", err)
			}
			if err := e.SetMode(modes[i%len(modes)], 1+i%2); err != nil {
				t.Errorf("SetMode: %v", err)
			}
			if err := e.SetTimeout(time.Duration(1+i%3) * time.Second); err != nil {
				t.Errorf("SetTimeout: %v", err)
			}
			switch i % 2 {
			case 0:
				if err := e.AddRelease(extra); err != nil {
					t.Errorf("AddRelease: %v", err)
				}
			case 1:
				if err := e.RemoveRelease(extra.Version); err != nil {
					t.Errorf("RemoveRelease: %v", err)
				}
			}
		}
		// Leave the topology and lifecycle in a known final state.
		_ = e.RemoveRelease(extra.Version)
		if err := e.SetPhase(PhaseParallel); err != nil {
			t.Errorf("final SetPhase: %v", err)
		}
	}()

	// Read-side spot checks: a concurrently loaded state must always be
	// internally consistent.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-managementDone:
				return
			default:
			}
			switch p := e.Phase(); p {
			case PhaseOldOnly, PhaseObservation, PhaseParallel, PhaseNewOnly:
			default:
				t.Errorf("impossible phase observed: %v", p)
				return
			}
			if n := len(e.Releases()); n < 2 || n > 3 {
				t.Errorf("impossible release count observed: %d", n)
				return
			}
		}
	}()

	// Consumer traffic against the dispatch path.
	for g := 0; g < trafficGoroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < requestsPerRoutine; i++ {
				req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(env))
				req.Header.Set("Content-Type", soap.ContentType)
				rec := httptest.NewRecorder()
				e.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					t.Errorf("request failed: HTTP %d: %s", rec.Code, rec.Body.String())
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// No lost monitor records: every served request produced exactly one.
	const total = trafficGoroutines * requestsPerRoutine
	if got := len(sinkRecords(t, &sink)); got != total {
		t.Fatalf("event log has %d records, want %d (lost or duplicated demands)", got, total)
	}
	if joint := e.Monitor().Joint(); !joint.Valid() {
		t.Fatalf("joint counts inconsistent: %+v", joint)
	}
	// The final management writes won the state: a consistent transition.
	if p := e.Phase(); p != PhaseParallel {
		t.Fatalf("final phase = %v, want %v", p, PhaseParallel)
	}
	if rels := e.Releases(); len(rels) != 2 || rels[0].Version != "1.0" || rels[1].Version != "1.1" {
		t.Fatalf("final releases = %+v", rels)
	}
}

// TestDispatchSeesConsistentState verifies that one fan-out never mixes
// two states: a request dispatched mid-reconfiguration must target a
// release set that existed at some single point in time.
func TestDispatchSeesConsistentState(t *testing.T) {
	// Two disjoint generations; a torn snapshot would mix them.
	genA := []Endpoint{}
	genB := []Endpoint{}
	for i := 0; i < 2; i++ {
		_, ep := startRelease(t, fmt.Sprintf("a.%d", i), service.FaultPlan{})
		genA = append(genA, ep)
	}
	for i := 0; i < 2; i++ {
		_, ep := startRelease(t, fmt.Sprintf("b.%d", i), service.FaultPlan{})
		genB = append(genB, ep)
	}
	var sink bytes.Buffer
	e, err := New(Config{Releases: genA, Oracle: oracle.Header{}, Store: &sink})
	if err != nil {
		t.Fatal(err)
	}

	env := soap.EnvelopeRaw([]byte(`<addRequest><a>1</a><b>1</b></addRequest>`))
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		flip := func(from, to []Endpoint) {
			// Grow to the new generation, then shed the old one; the
			// set is a mix in between, but each published state is a
			// set that really existed.
			for _, ep := range to {
				if err := e.AddRelease(ep); err != nil {
					t.Errorf("AddRelease: %v", err)
				}
			}
			for _, ep := range from {
				if err := e.RemoveRelease(ep.Version); err != nil {
					t.Errorf("RemoveRelease: %v", err)
				}
			}
		}
		for i := 0; i < 10; i++ {
			flip(genA, genB)
			flip(genB, genA)
		}
		close(done)
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(env))
			req.Header.Set("Content-Type", soap.ContentType)
			rec := httptest.NewRecorder()
			e.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("request failed mid-flip: HTTP %d: %s", rec.Code, rec.Body.String())
				return
			}
		}
	}()
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Every record's winner came from a release that was deployed in the
	// snapshot that served it — in particular, never the empty string.
	for _, rec := range sinkRecords(t, &sink) {
		if rec.Winner == "" {
			t.Fatalf("a request was served without a winner: %+v", rec)
		}
	}
}

// sinkRecords decodes the JSONL event log an engine wrote to Store.
func sinkRecords(t *testing.T, sink *bytes.Buffer) []monitor.Record {
	t.Helper()
	var recs []monitor.Record
	for _, line := range strings.Split(strings.TrimSuffix(sink.String(), "\n"), "\n") {
		if line == "" {
			continue
		}
		var rec monitor.Record
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("event log line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	return recs
}
