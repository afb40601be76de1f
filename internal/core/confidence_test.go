package core

import (
	"sync"
	"testing"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/service"
)

// startInferenceEngine deploys two releases, the new one faultless, with
// inference configured, in a phase where every demand makes a joint
// record.
func startInferenceEngine(t *testing.T, phase Phase, oldPlan service.FaultPlan) (*Engine, string) {
	t.Helper()
	_, old := startRelease(t, "1.0", oldPlan)
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	e, ts := startEngine(t, Config{
		Releases:     []Endpoint{old, new_},
		InitialPhase: phase,
		Oracle:       oracle.Header{},
		Inference:    testInference(),
	})
	return e, ts.URL
}

// unmemoised returns what the engine must report for counts in the
// parallel phase: a function over a model of its own, with no memo.
func unmemoised(t *testing.T, e *Engine) func(bayes.JointCounts) ConfidenceReport {
	t.Helper()
	wb, err := bayes.NewWhiteBox(*testInference())
	if err != nil {
		t.Fatal(err)
	}
	target := e.cfg.ConfidenceTarget
	return func(counts bayes.JointCounts) ConfidenceReport {
		post, err := wb.Posterior(counts)
		if err != nil {
			return ConfidenceReport{}
		}
		rep := ConfidenceReport{
			Target:  target,
			Old:     post.ConfidenceA(target),
			New:     post.ConfidenceB(target),
			OldP99:  post.PercentileA(0.99),
			NewP99:  post.PercentileB(0.99),
			Demands: counts.N,
		}
		rep.Published = min(rep.Old, rep.New)
		return rep
	}
}

func TestPosteriorMemoReusedOnlyOnExactCounts(t *testing.T) {
	e, url := startInferenceEngine(t, PhaseParallel, service.FaultPlan{})
	for i := 0; i < 5; i++ {
		if _, err := callAdd(t, url, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	counts := e.mon.JointFor("add")
	first, err := e.inference.posterior("add", counts)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := e.inference.posterior("add", counts); again != first {
		t.Fatal("unchanged counts recomputed the posterior")
	}
	// The pooled record of a one-operation service has the same counts,
	// so the policy check (pooled) and the response (per operation)
	// share one posterior.
	if pooled, _ := e.inference.Posterior(e.mon.Joint()); pooled != first {
		t.Fatal("equal counts under another operation recomputed the posterior")
	}

	if _, err := callAdd(t, url, 7, 1); err != nil {
		t.Fatal(err)
	}
	moved := e.mon.JointFor("add")
	next, err := e.inference.posterior("add", moved)
	if err != nil {
		t.Fatal(err)
	}
	if next == first || next.Counts != moved {
		t.Fatalf("posterior for %+v served from the memo of %+v", moved, first.Counts)
	}
	got, err := e.Confidence("add")
	if err != nil {
		t.Fatal(err)
	}
	want := unmemoised(t, e)(moved)
	want.Operation = "add"
	if got != want {
		t.Fatalf("memoised report %+v, want %+v", got, want)
	}
}

func TestConfidencePhaseAppliedAfterMemo(t *testing.T) {
	// The old release fails visibly on half its demands, so the two
	// confidences differ and which one is published shows.
	e, url := startInferenceEngine(t, PhaseObservation, service.FaultPlan{
		Profile: relmodel.Profile{CR: 0.5, NER: 0.5}, Seed: 10})
	for i := 0; i < 20; i++ {
		_, _ = callAdd(t, url, i, 1) // the old release's faults are delivered in this phase
	}
	before, err := e.Confidence("")
	if err != nil {
		t.Fatal(err)
	}
	if err := e.SetPhase(PhaseNewOnly); err != nil {
		t.Fatal(err)
	}
	after, err := e.Confidence("")
	if err != nil {
		t.Fatal(err)
	}
	if before.Old == before.New || before.Published != before.Old || after.Published != after.New {
		t.Fatalf("published %v then %v, want old %v then new %v",
			before.Published, after.Published, before.Old, after.New)
	}
	if before.Demands != after.Demands || before.Old != after.Old || before.New != after.New {
		t.Fatalf("evidence unchanged but reports differ: %+v vs %+v", before, after)
	}
}

// Queries racing demands must each see the posterior of exactly the
// counts they report (run under -race: the memo is shared state).
func TestConfidenceMemoConcurrent(t *testing.T) {
	e, url := startInferenceEngine(t, PhaseParallel, service.FaultPlan{})
	want := unmemoised(t, e)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := callAdd(t, url, i, g); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				rep, err := e.Confidence("")
				if err != nil {
					t.Error(err)
					return
				}
				if w := want(bayes.JointCounts{N: rep.Demands}); rep != w {
					t.Errorf("report %+v, want %+v", rep, w)
					return
				}
			}
		}()
	}
	wg.Wait()
}
