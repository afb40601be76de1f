package repro

import (
	"encoding/json"
	"errors"
	"math"
	"regexp"
	"slices"
	"testing"
	"time"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/core"
	"wsupgrade/internal/journal"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/stats"
	"wsupgrade/internal/xrand"
)

// served caches blocks across tests: a block is a pure function of its
// configuration.
var served = map[block]*Result{}

func serveBlock(t *testing.T, b block) *Result {
	t.Helper()
	if res, ok := served[b]; ok {
		return res
	}
	res, err := b.serve()
	if err != nil {
		t.Fatal(err)
	}
	served[b] = res
	return res
}

// paperBlock is a Table 5 (correlated) or Table 6 block of the paper's
// run (1-4) at one timeout, mode 1.
func paperBlock(run int, correlated bool, timeout float64) block {
	return block{
		run:        relmodel.Runs()[run-1],
		correlated: correlated,
		latency:    relmodel.PaperLatency(),
		timeout:    timeout,
		requests:   1000,
		seed:       2004,
	}
}

func (b block) inMode(mode core.Mode, quorum int) block {
	b.mode, b.quorum = mode, quorum
	return b
}

func (b block) sized(requests int) block {
	b.requests = requests
	return b
}

// within reports whether a sample fraction of n trials is within four
// binomial standard errors of p.
func within(got float64, p float64, n int) bool {
	return math.Abs(got-p) <= 4*math.Sqrt(p*(1-p)/float64(n))
}

func TestAvailabilityValidation(t *testing.T) {
	broken := relmodel.Runs()[0]
	broken.Rel1.CR = 0.5 // breaks the simplex
	for name, b := range map[string]block{
		"broken run":   func() block { b := paperBlock(1, true, 1.5); b.run = broken; return b }(),
		"bad latency":  func() block { b := paperBlock(1, true, 1.5); b.latency.T1Mean = -1; return b }(),
		"zero timeout": paperBlock(1, true, 0),
		"no requests":  paperBlock(1, true, 1.5).sized(-1),
	} {
		if _, err := b.serve(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// The engine, not the harness, owns mode validation: core.New rejects an
// unknown mode and a quorum the two releases cannot meet.
func TestAvailabilityModeValidation(t *testing.T) {
	for name, b := range map[string]block{
		"unknown mode":    paperBlock(1, true, 1.5).inMode(core.Mode(99), 0),
		"quorum of 3":     paperBlock(1, true, 1.5).inMode(core.ModeDynamic, 3),
		"negative quorum": paperBlock(1, true, 1.5).inMode(core.ModeDynamic, -1),
	} {
		if _, err := b.serve(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// A release's MET is the mean of its raw execution times, which the
// timeout truncates nowhere: the same demands give the same MET at any
// timeout.
func TestReleaseMETIndependentOfTimeout(t *testing.T) {
	a := serveBlock(t, paperBlock(1, true, 1.5))
	b := serveBlock(t, paperBlock(1, true, 3.0))
	if math.Abs(a.Rel1.MET-b.Rel1.MET) > 1e-12 || math.Abs(a.Rel2.MET-b.Rel2.MET) > 1e-12 {
		t.Fatalf("raw release MET changed with timeout: %v/%v vs %v/%v",
			a.Rel1.MET, a.Rel2.MET, b.Rel1.MET, b.Rel2.MET)
	}
}

func TestAvailabilityDeterminism(t *testing.T) {
	b := paperBlock(2, true, 2.0).inMode(core.ModeResponsiveness, 0).sized(500)
	first, err := b.serve()
	if err != nil {
		t.Fatal(err)
	}
	again, err := b.serve()
	if err != nil {
		t.Fatal(err)
	}
	if *first != *again {
		t.Fatalf("same seed, different blocks:\n%+v\n%+v", first, again)
	}
	b.seed = 1
	other, err := b.serve()
	if err != nil {
		t.Fatal(err)
	}
	if other.System == first.System {
		t.Fatal("different seeds served identical system tallies")
	}
}

// replay runs a block's script outside the engine: what each release
// must be charged with in any mode, and when each mode delivers.
func replay(b block) (rel [2]Tally, inTime [2]float64, met float64, bothLate int) {
	rng := xrand.New(b.seed)
	tmo := b.timeout
	for i := 0; i < b.requests; i++ {
		d := b.script(rng)
		t1, t2 := d.secs[0], d.secs[1]
		invoked := [2]bool{true, b.mode != core.ModeSequential || t1 > tmo || d.kinds[0] == relmodel.EvidentFailure}
		for r, t := range d.secs {
			if !invoked[r] {
				continue
			}
			tally := &rel[r]
			tally.Executions++
			tally.MET += t
			switch {
			case t > tmo:
				tally.NRDT++
			case d.kinds[r] == relmodel.Correct:
				tally.CR++
			case d.kinds[r] == relmodel.EvidentFailure:
				tally.EER++
			default:
				tally.NER++
			}
			if t <= tmo {
				inTime[r] += t
			}
		}
		if t1 > tmo && t2 > tmo {
			bothLate++
		}
		first, last := 0, 1 // by arrival
		if t2 < t1 {
			first, last = 1, 0
		}
		valid := func(r int) bool { return d.secs[r] <= tmo && d.kinds[r] != relmodel.EvidentFailure }
		switch {
		case b.mode == core.ModeSequential && invoked[1]:
			met += math.Min(tmo, t1) + math.Min(tmo, t2)
		case b.mode == core.ModeSequential:
			met += t1
		case b.mode == core.ModeResponsiveness && valid(first):
			met += d.secs[first]
		case b.mode == core.ModeResponsiveness && valid(last):
			met += d.secs[last]
		case b.mode == core.ModeDynamic && b.quorum == 1:
			met += math.Min(tmo, d.secs[first])
		default: // eq. 8, and mode 2 once no valid response can come
			met += math.Min(tmo, d.secs[last])
		}
	}
	for r := range rel {
		if rel[r].Executions > 0 {
			rel[r].MET /= float64(rel[r].Executions)
		}
		inTime[r] /= float64(rel[r].Total())
	}
	return rel, inTime, met/float64(b.requests) + b.latency.DT, bothLate
}

// The engine charges each release exactly what the script did, delivers
// when its mode should — eq. 8 in mode 1 — and its monitor's mean
// latency is the script's mean over in-time responses.
func TestEngineAgreesWithScript(t *testing.T) {
	modes := []struct {
		mode   core.Mode
		quorum int
	}{{core.ModeReliability, 0}, {core.ModeResponsiveness, 0}, {core.ModeDynamic, 1}, {core.ModeDynamic, 2}, {core.ModeSequential, 0}}
	for _, correlated := range []bool{true, false} {
		for _, m := range modes {
			b := paperBlock(2, correlated, 1.5).inMode(m.mode, m.quorum)
			res := serveBlock(t, b)
			rel, inTime, met, bothLate := replay(b)
			for r, got := range []Tally{res.Rel1, res.Rel2} {
				want := rel[r]
				want.MeanLatency = got.MeanLatency
				if math.Abs(got.MET-want.MET) > 1e-12 {
					t.Errorf("%v correlated=%v release %d: MET %v, script %v", m.mode, correlated, r+1, got.MET, want.MET)
				}
				want.MET = got.MET
				if got != want {
					t.Errorf("%v correlated=%v release %d: engine %+v, script %+v", m.mode, correlated, r+1, got, want)
				}
				if d := got.MeanLatency.Seconds() - inTime[r]; math.Abs(d) > 1e-6 {
					t.Errorf("%v correlated=%v release %d: monitor mean latency %v, script %v",
						m.mode, correlated, r+1, got.MeanLatency, inTime[r])
				}
			}
			if math.Abs(res.System.MET-met) > 1e-6 {
				t.Errorf("%v(q%d) correlated=%v: system MET %v, mode timing %v", m.mode, m.quorum, correlated, res.System.MET, met)
			}
			if res.System.NRDT != bothLate {
				t.Errorf("%v correlated=%v: system NRDT %d, both releases late %d", m.mode, correlated, res.System.NRDT, bothLate)
			}
		}
	}
}

func TestTalliesBalance(t *testing.T) {
	for _, correlated := range []bool{true, false} {
		for run := 1; run <= 4; run++ {
			b := paperBlock(run, correlated, 1.5)
			res := serveBlock(t, b)
			for name, tot := range map[string]int{
				"rel1":   res.Rel1.Total() + res.Rel1.NRDT,
				"rel2":   res.Rel2.Total() + res.Rel2.NRDT,
				"system": res.System.Total() + res.System.NRDT,
			} {
				if tot != b.requests {
					t.Fatalf("run %d correlated=%v: %s accounts for %d of %d demands", run, correlated, name, tot, b.requests)
				}
			}
		}
	}
}

// The 1-out-of-2 architecture: the system fails to respond only when both
// releases do, so its availability dominates each release's (paper §5.2.3
// observation 1).
func TestSystemAvailabilityDominates(t *testing.T) {
	for _, correlated := range []bool{true, false} {
		for run := 1; run <= 4; run++ {
			for _, timeout := range PaperTimeouts {
				res := serveBlock(t, paperBlock(run, correlated, timeout))
				if res.System.NRDT > res.Rel1.NRDT || res.System.NRDT > res.Rel2.NRDT {
					t.Errorf("run %d correlated=%v timeout=%v: system NRDT %d exceeds a release's (%d, %d)",
						run, correlated, timeout, res.System.NRDT, res.Rel1.NRDT, res.Rel2.NRDT)
				}
			}
		}
	}
}

// Under independence, fault tolerance works: the system returns more
// correct responses than either release (paper §5.2.3 observation 4).
func TestIndependenceSystemBeatsBothReleases(t *testing.T) {
	for run := 1; run <= 4; run++ {
		res := serveBlock(t, paperBlock(run, false, 3.0))
		if res.System.CR <= res.Rel1.CR || res.System.CR <= res.Rel2.CR {
			t.Errorf("run %d independent: system CR %d does not beat releases (%d, %d)",
				run, res.System.CR, res.Rel1.CR, res.Rel2.CR)
		}
	}
}

// Under correlation the system still at least beats the worse release
// (paper §5.2.3 observation 3, runs 2-4).
func TestCorrelatedSystemBeatsWorseRelease(t *testing.T) {
	for run := 2; run <= 4; run++ {
		res := serveBlock(t, paperBlock(run, true, 3.0))
		if worse := min(res.Rel1.CR, res.Rel2.CR); res.System.CR < worse {
			t.Errorf("run %d correlated: system CR %d below worse release %d", run, res.System.CR, worse)
		}
	}
}

// A longer timeout collects more responses: NRDT decreases monotonically
// in TimeOut for releases and system alike.
func TestNRDTDecreasesWithTimeout(t *testing.T) {
	var prev *Result
	for _, timeout := range PaperTimeouts {
		res := serveBlock(t, paperBlock(1, true, timeout))
		if prev != nil && (res.Rel1.NRDT > prev.Rel1.NRDT || res.Rel2.NRDT > prev.Rel2.NRDT ||
			res.System.NRDT > prev.System.NRDT) {
			t.Errorf("NRDT rose when timeout grew to %v: %+v -> %+v", timeout, prev.System, res.System)
		}
		prev = res
	}
}

// Release outcome frequencies among received responses track the
// configured marginals.
func TestOutcomeFrequenciesMatchModel(t *testing.T) {
	res := serveBlock(t, paperBlock(1, false, 3.0))
	tot := res.Rel1.Total()
	if got := float64(res.Rel1.CR) / float64(tot); !within(got, 0.70, tot) {
		t.Errorf("rel1 CR share = %v, want ~0.70", got)
	}
	if got := float64(res.Rel1.EER) / float64(tot); !within(got, 0.15, tot) {
		t.Errorf("rel1 EER share = %v, want ~0.15", got)
	}
	// Correlated regime: release 2 follows the implied marginal, not
	// Table 3's nominal.
	b := paperBlock(3, true, 3.0)
	resC := serveBlock(t, b)
	implied := b.run.Cond.Marginal2(b.run.Rel1)
	if got := float64(resC.Rel2.CR) / float64(resC.Rel2.Total()); !within(got, implied.CR, resC.Rel2.Total()) {
		t.Errorf("correlated rel2 CR share = %v, want ~%v", got, implied.CR)
	}
}

// System MET never exceeds TimeOut + dT (eq. 8's upper bound).
func TestSystemMETBoundedByTimeout(t *testing.T) {
	for _, timeout := range PaperTimeouts {
		b := paperBlock(4, true, timeout)
		if res := serveBlock(t, b); res.System.MET > timeout+b.latency.DT {
			t.Errorf("system MET %v exceeds bound %v", res.System.MET, timeout+b.latency.DT)
		}
	}
}

// Mode 2 trades reliability for latency: it responds faster than mode 1
// on average, at the same capacity and availability.
func TestResponsivenessFasterThanReliability(t *testing.T) {
	base := paperBlock(1, true, 3.0)
	rel := serveBlock(t, base)
	resp := serveBlock(t, base.inMode(core.ModeResponsiveness, 0))
	if resp.System.MET >= rel.System.MET {
		t.Fatalf("responsiveness MET %v not below reliability MET %v", resp.System.MET, rel.System.MET)
	}
	if resp.System.Executions != rel.System.Executions || resp.System.NRDT != rel.System.NRDT {
		t.Fatalf("parallel modes differ in capacity or availability: %+v vs %+v", resp.System, rel.System)
	}
}

// Mode 3 with quorum 2 is mode 1 for two releases.
func TestDynamicQuorum2MatchesReliability(t *testing.T) {
	base := paperBlock(2, true, 2.0)
	if rel, dyn := serveBlock(t, base), serveBlock(t, base.inMode(core.ModeDynamic, 2)); *dyn != *rel {
		t.Fatalf("dynamic(q=2) %+v differs from reliability %+v", dyn, rel)
	}
}

// Mode 3 with quorum 1 adjudicates on the first response: faster than
// quorum 2.
func TestDynamicQuorum1Faster(t *testing.T) {
	base := paperBlock(1, true, 3.0)
	q1 := serveBlock(t, base.inMode(core.ModeDynamic, 1))
	q2 := serveBlock(t, base.inMode(core.ModeDynamic, 2))
	if q1.System.MET >= q2.System.MET {
		t.Fatalf("quorum-1 MET %v not below quorum-2 MET %v", q1.System.MET, q2.System.MET)
	}
}

// Mode 4 saves server capacity when the first release mostly works.
func TestSequentialSavesCapacity(t *testing.T) {
	base := paperBlock(1, true, 3.0)
	par := serveBlock(t, base)
	seq := serveBlock(t, base.inMode(core.ModeSequential, 0))
	if seq.System.Executions >= par.System.Executions {
		t.Fatalf("sequential used %d executions, parallel %d", seq.System.Executions, par.System.Executions)
	}
	// Release 1 responds within 3 s with CR or NER ~66% of the time, so
	// release 2 executes for roughly the remaining third.
	if seq.Rel2.Executions == 0 || seq.Rel2.Executions > base.requests/2 {
		t.Fatalf("sequential rel2 executed %d times, expected a modest fraction of %d", seq.Rel2.Executions, base.requests)
	}
	if seq.System.Total()+seq.System.NRDT != base.requests {
		t.Fatalf("sequential accounts for %d of %d demands", seq.System.Total()+seq.System.NRDT, base.requests)
	}
}

// Sequential failover tolerates evident failures: the system's evident
// failure share is below release 1's.
func TestSequentialMasksEvidentFailures(t *testing.T) {
	b := paperBlock(1, false, 3.0).inMode(core.ModeSequential, 0)
	res := serveBlock(t, b)
	rel1Share := float64(res.Rel1.EER) / float64(res.Rel1.Executions)
	if sysShare := float64(res.System.EER) / float64(b.requests); sysShare >= rel1Share {
		t.Fatalf("sequential system EER share %v not below rel1 %v", sysShare, rel1Share)
	}
}

// With T1 ~ Exp(m) and T2 ~ Exp(m), a release's execution time T = T1 +
// T2 is Erlang(2, rate 1/m): E[T] = 2m and P(T > t) = e^{-t/m} (1 + t/m).
func TestReleaseLatencyMatchesErlangAnalytics(t *testing.T) {
	b := paperBlock(1, true, 1.5).sized(10000)
	res := serveBlock(t, b)
	const m = 0.7
	// Erlang(2)'s standard deviation is m√2.
	for name, tally := range map[string]Tally{"rel1": res.Rel1, "rel2": res.Rel2} {
		if math.Abs(tally.MET-2*m) > 4*m*math.Sqrt2/math.Sqrt(float64(b.requests)) {
			t.Errorf("%s MET = %v, Erlang mean %v", name, tally.MET, 2*m)
		}
		x := b.timeout / m
		if got := float64(tally.NRDT) / float64(b.requests); !within(got, math.Exp(-x)*(1+x), b.requests) {
			t.Errorf("%s NRDT fraction = %v, Erlang survival %v", name, got, math.Exp(-x)*(1+x))
		}
	}
}

// The system responds unless both releases miss the timeout. The shared
// T1 couples the misses; the joint miss rate is P(T1 + max(T2a, T2b) >
// t), integrated numerically over T1's density.
func TestSystemNRDTMatchesJointAnalytics(t *testing.T) {
	b := paperBlock(1, true, 1.5).sized(10000)
	res := serveBlock(t, b)
	const m, steps = 0.7, 20000
	tmo := b.timeout
	joint := math.Exp(-tmo / m) // T1 alone exceeds the timeout
	for i := 0; i < steps; i++ {
		u := (float64(i) + 0.5) * (tmo / steps)
		tail := math.Exp(-(tmo - u) / m) // P(T2 > t-u)
		joint += math.Exp(-u/m) / m * tail * tail * (tmo / steps)
	}
	if got := float64(res.System.NRDT) / float64(b.requests); !within(got, joint, b.requests) {
		t.Fatalf("system NRDT fraction = %v, analytic %v", got, joint)
	}
}

// With an effectively infinite timeout every response is collected, and
// the adjudicated outcome has a closed form under independence. With run
// 2's marginals (0.7, .15, .15) × (0.6, .2, .2): both CR .42; CR and NER
// picked at random .115; CR against ER .23.
func TestInfiniteTimeoutCollectsEverything(t *testing.T) {
	b := paperBlock(2, false, 1000).sized(4000)
	res := serveBlock(t, b)
	if res.Rel1.NRDT != 0 || res.Rel2.NRDT != 0 || res.System.NRDT != 0 {
		t.Fatalf("NRDT with infinite timeout: %d/%d/%d", res.Rel1.NRDT, res.Rel2.NRDT, res.System.NRDT)
	}
	if got, want := float64(res.System.CR)/float64(b.requests), 0.42+0.115+0.23; !within(got, want, b.requests) {
		t.Fatalf("system CR fraction = %v, analytic %v", got, want)
	}
}

// Perfectly correlated, instantaneous releases behave as one: the system
// tallies equal each release's.
func TestPerfectCorrelationForcesIdenticalOutcomes(t *testing.T) {
	profile := relmodel.Profile{CR: 0.6, ER: 0.2, NER: 0.2}
	res := serveBlock(t, block{
		run:        relmodel.Run{ID: 1, Rel1: profile, Rel2Independent: profile, Cond: relmodel.Diagonal(1)},
		correlated: true,
		timeout:    1,
		requests:   2000,
		seed:       3,
	})
	if s, r := res.System, res.Rel1; s.CR != r.CR || s.EER != r.EER || s.NER != r.NER || res.Rel2 != r {
		t.Fatalf("system %+v differs from perfectly correlated releases %+v / %+v", s, r, res.Rel2)
	}
}

// The §5.1 switch on the engine: Scenario 2's demand stream, judged by
// the ground-truth oracle, switches each criterion at the demand the
// switch study's perfect-detection regime does.
func TestSwitchMatchesStudy(t *testing.T) {
	cfg := StudyConfig{Scenario: relmodel.Scenario2(), Step: 100, MaxDemands: 10000, Grid: coarse, Seed: 42}
	study := runStudy(t, cfg)
	criteria, err := cfg.criteria()
	if err != nil {
		t.Fatal(err)
	}
	inference := cfg.inference()
	truth := cfg.Scenario.Truth
	script := func(rng *xrand.Rand) (d demandScript) {
		aFailed, bFailed := truth.Sample(rng)
		for i, failed := range []bool{aFailed, bFailed} {
			d.kinds[i] = relmodel.Correct
			if failed {
				d.kinds[i] = relmodel.NonEvidentFailure
			}
		}
		return d
	}
	for ci, crit := range criteria {
		want := study.Regimes[RegimePerfect].Criteria[ci]
		if !want.Attained {
			t.Fatalf("%v: the study never switched", CriterionID(ci))
		}
		h := newHarness(script, cfg.Seed)
		e, err := h.engine(core.Config{
			Inference: &inference,
			Policy:    &core.PolicyConfig{Criterion: crit, CheckEvery: cfg.Step},
		})
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < want.FirstSwitch; n++ {
			if _, err := h.serve(e); err != nil {
				t.Fatal(err)
			}
		}
		if at, ok := e.SwitchedAt(); at != want.FirstSwitch {
			t.Errorf("%v: the engine switched at %d (%v), the study at %d", CriterionID(ci), at, ok, want.FirstSwitch)
		}
		_ = e.Close()
	}
}

// confidenceValue reads the §6.2 confidence a SOAP response publishes.
var confidenceValue = regexp.MustCompile(`conf:Confidence [^>]*value="([^"]*)"`)

// Journal equivalence as a property: a campaign snapshotted at any
// demand, restored into a fresh engine and continued publishes the same
// confidence on every response as the uninterrupted campaign, and ends
// with the same §6.1 availability and responsiveness confidences (the
// latter read from the latency histogram, which must survive the cut).
func TestRestoreAtRandomCutsMatchesUninterrupted(t *testing.T) {
	const demands, cuts = 300, 20
	b := paperBlock(1, true, 3.0)
	prior := stats.ScaledBeta{Alpha: 1, Beta: 1, Upper: 0.49}
	inference := bayes.WhiteBoxConfig{PriorA: prior, PriorB: prior, GridA: 30, GridB: 30, GridC: 8, GridAB: 32}
	cfg := core.Config{Timeout: seconds(b.timeout), Inference: &inference, PublishHeader: true, ConfidenceTarget: 0.4}
	type campaign struct {
		published            []string
		availability, timely [2]float64
	}
	run := func(cut int) (c campaign) {
		h := newHarness(b.script, b.seed)
		e, err := h.engine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < demands; n++ {
			if n == cut {
				raw, err := json.Marshal(e.CampaignSnapshot())
				if err != nil {
					t.Fatal(err)
				}
				var snap journal.Snapshot
				if err := json.Unmarshal(raw, &snap); err != nil {
					t.Fatal(err)
				}
				_ = e.Close()
				if e, err = h.engine(cfg); err != nil {
					t.Fatal(err)
				}
				if err := e.RestoreCampaign(journal.State{Snapshot: &snap, Phase: snap.Phase}); err != nil {
					t.Fatal(err)
				}
			}
			w, err := h.serve(e)
			if err != nil {
				t.Fatal(err)
			}
			// A fault publishes no confidence.
			var value string
			if m := confidenceValue.FindSubmatch(w.Body.Bytes()); m != nil {
				value = string(m[1])
			}
			c.published = append(c.published, value)
		}
		for r, version := range []string{"1", "2"} {
			if c.availability[r], err = e.AvailabilityConfidence(version, 0.1); err != nil {
				t.Fatal(err)
			}
			if c.timely[r], err = e.ResponsivenessConfidence(version, time.Second, 0.6); err != nil {
				t.Fatal(err)
			}
		}
		_ = e.Close()
		return c
	}
	want := run(-1)
	if distinct := slices.Compact(slices.Sorted(slices.Values(want.published))); len(distinct) < 10 {
		t.Fatalf("the campaign's confidence hardly moved: %q", distinct)
	}
	rng := xrand.New(26)
	for i := 0; i < cuts; i++ {
		cut := 1 + rng.Intn(demands-1)
		got := run(cut)
		for n := range want.published {
			if got.published[n] != want.published[n] {
				t.Fatalf("cut at %d: demand %d published %s, uninterrupted %s", cut, n+1, got.published[n], want.published[n])
			}
		}
		if got.availability != want.availability || got.timely != want.timely {
			t.Fatalf("cut at %d: §6.1 availability %v responsiveness %v, uninterrupted %v %v",
				cut, got.availability, got.timely, want.availability, want.timely)
		}
	}
}

// The scheduler's one piece of mode knowledge is which arrival completes
// delivery. A wrong answer fails the run: holding the clock for a
// delivery the engine does not make stalls the demand.
func TestWrongDeliveryGuessFailsTheRun(t *testing.T) {
	defer func(d time.Duration) { stallAfter = d }(stallAfter)
	stallAfter = 100 * time.Millisecond
	b := paperBlock(1, true, 1.5)
	h := newHarness(b.script, b.seed)
	e, err := h.engine(core.Config{Timeout: seconds(b.timeout)})
	if err != nil {
		t.Fatal(err)
	}
	h.mode, h.quorum = core.ModeDynamic, 1 // the engine waits for both releases
	if _, err := h.serve(e); !errors.Is(err, errStalled) {
		t.Fatalf("serve = %v, want %v", err, errStalled)
	}
}
