package core

import (
	"context"
	"encoding/xml"
	"fmt"
	"math"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
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

// The response path computes only the scalar it publishes; it must be
// the report's Published in every phase, for the pooled record and for
// one operation's.
func TestPublishedConfidenceMatchesReport(t *testing.T) {
	// The old release fails visibly on half its demands, so the two
	// marginals differ and reading the wrong one shows.
	e, url := startInferenceEngine(t, PhaseObservation, service.FaultPlan{
		Profile: relmodel.Profile{CR: 0.5, NER: 0.5}, Seed: 10})
	for i := 0; i < 20; i++ {
		_, _ = callAdd(t, url, i, 1)
	}
	for _, phase := range []Phase{PhaseOldOnly, PhaseObservation, PhaseParallel, PhaseNewOnly} {
		if err := e.SetPhase(phase); err != nil {
			t.Fatal(err)
		}
		for _, op := range []string{"", "add"} {
			rep, err := e.Confidence(op)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Old == rep.New {
				t.Fatalf("%v %q: old and new confidence are both %v; the test cannot tell them apart", phase, op, rep.Old)
			}
			got, err := e.publishedConfidence(op)
			if err != nil {
				t.Fatal(err)
			}
			if got != rep.Published {
				t.Errorf("%v %q: published %v, report says %v (old %v, new %v)", phase, op, got, rep.Published, rep.Old, rep.New)
			}
		}
	}
}

// The memo hands each operation's last posterior to the model as the
// predecessor of the next: streams of very different N advancing side
// by side — per operation and pooled, as respond and evaluatePolicy
// drive them, from several goroutines at once (run under -race) — must
// each read exactly what a model with no memo and no predecessor says,
// through the posterior and through the served pair alike. Every other
// step asks for the pair first, so the scalar path computes it rather
// than reading it off the posterior just made.
func TestMemoFrontierStreams(t *testing.T) {
	model, err := bayes.NewWhiteBox(*testInference())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := bayes.NewWhiteBox(*testInference())
	if err != nil {
		t.Fatal(err)
	}
	const target = 0.02
	m := &memoInference{model: model, target: target}
	checkPosterior := func(op string, c bayes.JointCounts, want *bayes.Posterior) {
		got, err := m.posterior(op, c)
		if err != nil {
			t.Errorf("%q %+v: %v", op, c, err)
			return
		}
		if got.Counts != c || !slices.Equal(got.A.Ws, want.A.Ws) || !slices.Equal(got.B.Ws, want.B.Ws) ||
			!slices.Equal(got.AB.Ws, want.AB.Ws) {
			t.Errorf("%q %+v: memoised posterior differs from the model's", op, c)
		}
	}
	checkServed := func(op string, c bayes.JointCounts, want *bayes.Posterior) {
		a, b, err := m.served(op, c)
		if err != nil {
			t.Errorf("%q %+v: %v", op, c, err)
			return
		}
		wantA, wantB := want.ConfidenceA(target), want.ConfidenceB(target)
		if math.Float64bits(a) != math.Float64bits(wantA) || math.Float64bits(b) != math.Float64bits(wantB) {
			t.Errorf("%q %+v: served (%v, %v), the model says (%v, %v)", op, c, a, b, wantA, wantB)
		}
	}
	check := func(op string, c bayes.JointCounts, servedFirst bool) {
		want, err := plain.Posterior(c)
		if err != nil {
			t.Errorf("%q %+v: %v", op, c, err)
			return
		}
		if servedFirst {
			checkServed(op, c, want)
			checkPosterior(op, c, want)
		} else {
			checkPosterior(op, c, want)
			checkServed(op, c, want)
		}
	}
	var wg sync.WaitGroup
	for g, start := range []bayes.JointCounts{{N: 6000}, {N: 90000, AOnly: 4, BOnly: 1}, {N: 700, Both: 1}, {N: 2500000, BOnly: 30}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			op, c := fmt.Sprintf("op%d", g), start
			for i := 1; i <= 300; i++ {
				c.Add(bayes.NeitherFails)
				if i%97 == 0 {
					c.Add(bayes.JointOutcome(1 + i%3))
				}
				check(op, c, i%2 == 0)
				if i%3 == 0 { // the policy's pooled query, between the responses'
					pooled := c
					pooled.Merge(bayes.JointCounts{N: 40000 + g, AOnly: 2})
					check("", pooled, i%2 == 1)
				}
			}
		}()
	}
	wg.Wait()
}

// Publication races the rest of the §6.2 surface on one engine: demands
// that publish their confidence, Confidence queries and phase changes,
// all sharing the memo's slots (run under -race). Every response must
// carry a header whose value is a probability and, once the demands are
// in, what the engine publishes must be, bit for bit, what a model with
// no memo says of the final record, in every phase.
func TestPublishedConcurrent(t *testing.T) {
	// The old release fails visibly on half its demands, so the two
	// marginals differ and the phase decides which is published.
	_, old := startRelease(t, "1.0", service.FaultPlan{Profile: relmodel.Profile{CR: 0.5, NER: 0.5}, Seed: 10})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	e, ts := startEngine(t, Config{
		Releases:      []Endpoint{old, new_},
		InitialPhase:  PhaseObservation,
		Oracle:        oracle.Header{},
		Inference:     testInference(),
		PublishHeader: true,
	})
	cycle := []Phase{PhaseOldOnly, PhaseObservation, PhaseParallel, PhaseNewOnly}
	env := soap.EnvelopeRaw([]byte(`<addRequest><a>1</a><b>1</b></addRequest>`))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(2)
	go func() { // the operator
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := e.SetPhase(cycle[i%len(cycle)]); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	go func() { // a status poll
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, op := range []string{"", "add"} {
				if rep, err := e.Confidence(op); err != nil || rep.Published < 0 || rep.Published > 1 {
					t.Errorf("Confidence(%q) = %+v, %v", op, rep, err)
					return
				}
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &soap.Client{URL: ts.URL, HTTP: &http.Client{Timeout: 5 * time.Second}}
			for i := 0; i < 20; i++ {
				respEnv, err := c.CallRaw(context.Background(), "add", env)
				if err != nil {
					continue // the old release's faults are delivered in old-only and observation
				}
				parsed, err := soap.Decode(respEnv)
				if err != nil {
					t.Error(err)
					return
				}
				var conf struct {
					Value float64 `xml:"value,attr"`
				}
				if err := xml.Unmarshal(parsed.HeaderXML, &conf); err != nil || conf.Value < 0 || conf.Value > 1 {
					t.Errorf("confidence header %q: value %v, %v", parsed.HeaderXML, conf.Value, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	model, err := bayes.NewWhiteBox(*testInference())
	if err != nil {
		t.Fatal(err)
	}
	target := e.cfg.ConfidenceTarget
	for _, phase := range cycle {
		if err := e.SetPhase(phase); err != nil {
			t.Fatal(err)
		}
		for _, op := range []string{"", "add"} {
			post, err := model.Posterior(e.joint(op))
			if err != nil {
				t.Fatal(err)
			}
			want := servedConfidence(phase, post.ConfidenceA(target), post.ConfidenceB(target))
			if got, err := e.publishedConfidence(op); err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v %q: published %v (%v), the model says %v", phase, op, got, err, want)
			}
		}
	}
}
