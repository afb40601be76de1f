package repro

import (
	"strings"
	"testing"

	"wsupgrade/internal/relmodel"
)

// coarse grid settings keep the fast tests fast; the fidelity test below
// uses the full resolution.
var coarse = GridConfig{A: 40, B: 40, C: 12, AB: 64}

func runStudy(t *testing.T, cfg StudyConfig) *StudyResult {
	t.Helper()
	res, err := RunSwitchStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSwitchStudyValidation(t *testing.T) {
	bad := StudyConfig{Scenario: relmodel.Scenario{}}
	if _, err := RunSwitchStudy(bad); err == nil {
		t.Fatal("empty scenario accepted")
	}
}

func TestRegimeAndCriterionStrings(t *testing.T) {
	if RegimePerfect.String() != "perfect" || RegimeOmission.String() != "omission" ||
		RegimeBackToBack.String() != "back-to-back" {
		t.Fatal("regime names wrong")
	}
	if Regime(9).String() != "Regime(9)" {
		t.Fatal("unknown regime name wrong")
	}
	if Criterion1.String() != "criterion-1" || Criterion2.String() != "criterion-2" ||
		Criterion3.String() != "criterion-3" {
		t.Fatal("criterion names wrong")
	}
	if CriterionID(9).String() != "CriterionID(9)" {
		t.Fatal("unknown criterion name wrong")
	}
}

func TestSwitchStudyDeterminism(t *testing.T) {
	cfg := StudyConfig{Scenario: relmodel.Scenario2(), Step: 500, MaxDemands: 4000,
		Grid: coarse, Seed: 7}
	a := runStudy(t, cfg)
	b := runStudy(t, cfg)
	if a.TrueAFailures != b.TrueAFailures || a.TrueBFailures != b.TrueBFailures {
		t.Fatal("same seed, different demand streams")
	}
	for r := range a.Regimes {
		if a.Regimes[r] != b.Regimes[r] {
			t.Fatalf("same seed, different outcomes in %s", a.Regimes[r].Regime)
		}
	}
}

func TestSwitchStudyCheckpointStructure(t *testing.T) {
	cfg := StudyConfig{Scenario: relmodel.Scenario2(), Step: 300, MaxDemands: 1000,
		Grid: coarse, Seed: 1}
	res := runStudy(t, cfg)
	// Checkpoints at 300, 600, 900 and the final 1000.
	want := []int{300, 600, 900, 1000}
	if len(res.Trajectory) != len(want) {
		t.Fatalf("got %d checkpoints, want %d", len(res.Trajectory), len(want))
	}
	for i, p := range res.Trajectory {
		if p.Demands != want[i] {
			t.Fatalf("checkpoint %d at %d demands, want %d", i, p.Demands, want[i])
		}
	}
	// All three regimes saw every demand.
	for r, c := range res.Counts {
		if c.N != 1000 {
			t.Fatalf("regime %s recorded %d demands, want 1000", Regime(r), c.N)
		}
	}
}

// The detection regimes distort the record in the documented directions:
// omission strictly removes failures; back-to-back removes exactly the
// coincident ones.
func TestDetectionRegimeBookkeeping(t *testing.T) {
	cfg := StudyConfig{Scenario: relmodel.Scenario1(), Step: 10000, MaxDemands: 50000,
		Grid: coarse, Seed: 42}
	res := runStudy(t, cfg)
	perfect := res.Counts[RegimePerfect]
	omission := res.Counts[RegimeOmission]
	b2b := res.Counts[RegimeBackToBack]

	if perfect.AFailures() != res.TrueAFailures || perfect.BFailures() != res.TrueBFailures {
		t.Fatalf("perfect regime lost failures: %+v vs true %d/%d",
			perfect, res.TrueAFailures, res.TrueBFailures)
	}
	if omission.AFailures() > perfect.AFailures() || omission.BFailures() > perfect.BFailures() {
		t.Fatal("omission regime invented failures")
	}
	if b2b.Both != 0 {
		t.Fatalf("back-to-back recorded %d coincident failures, want 0", b2b.Both)
	}
	if b2b.AOnly != perfect.AOnly || b2b.BOnly != perfect.BOnly {
		t.Fatal("back-to-back distorted discordant demands")
	}
}

// Scenario 2 must switch orders of magnitude earlier than Scenario 1 —
// the paper's headline contrast between the two studies.
func TestScenario2SwitchesMuchEarlier(t *testing.T) {
	s1 := runStudy(t, StudyConfig{Scenario: relmodel.Scenario1(), Step: 1000,
		Grid: coarse, Seed: 42})
	s2 := runStudy(t, StudyConfig{Scenario: relmodel.Scenario2(), Step: 200,
		MaxDemands: 15000, Grid: coarse, Seed: 42})

	c1s1 := s1.Regimes[RegimePerfect].Criteria[Criterion1]
	c1s2 := s2.Regimes[RegimePerfect].Criteria[Criterion1]
	if !c1s1.Attained || !c1s2.Attained {
		t.Fatalf("criterion 1 unattained: s1=%+v s2=%+v", c1s1, c1s2)
	}
	if c1s2.FirstSwitch*5 > c1s1.FirstSwitch {
		t.Fatalf("scenario 2 (%d) not much earlier than scenario 1 (%d)",
			c1s2.FirstSwitch, c1s1.FirstSwitch)
	}
	// Criterion 3 in scenario 2 fires even earlier than criterion 1
	// (paper: 1,100 vs 1,400).
	c3s2 := s2.Regimes[RegimePerfect].Criteria[Criterion3]
	if !c3s2.Attained || c3s2.FirstSwitch > c1s2.FirstSwitch {
		t.Fatalf("criterion 3 (%+v) should fire no later than criterion 1 (%+v)", c3s2, c1s2)
	}
}

// Criterion 2's explicit 10⁻³ target sits just above the new release's
// true pfd in Scenario 1: unattainable with perfect detection within
// 50,000 demands (paper Table 2, top-right).
func TestScenario1Criterion2NotAttainedWithPerfectDetection(t *testing.T) {
	s1 := runStudy(t, StudyConfig{Scenario: relmodel.Scenario1(), Step: 2500,
		Grid: coarse, Seed: 42})
	c2 := s1.Regimes[RegimePerfect].Criteria[Criterion2]
	if c2.Attained {
		t.Fatalf("criterion 2 attained at %d with perfect detection", c2.FirstSwitch)
	}
	// Back-to-back testing masks the coincident failures, making the new
	// release look better than it is — criterion 2 becomes attainable.
	b2b := s1.Regimes[RegimeBackToBack].Criteria[Criterion2]
	if !b2b.Attained {
		t.Fatal("criterion 2 not attained under back-to-back detection")
	}
}

// Imperfect detection biases the inference optimistically: switches occur
// no later than with perfect oracles (paper §5.1.1.3).
func TestImperfectDetectionSwitchesEarlier(t *testing.T) {
	s1 := runStudy(t, StudyConfig{Scenario: relmodel.Scenario1(), Step: 1000,
		Grid: coarse, Seed: 42})
	for _, ci := range []CriterionID{Criterion1, Criterion3} {
		perfect := s1.Regimes[RegimePerfect].Criteria[ci]
		if !perfect.Attained {
			t.Fatalf("%v not attained with perfect detection", ci)
		}
		for _, reg := range []Regime{RegimeOmission, RegimeBackToBack} {
			imp := s1.Regimes[reg].Criteria[ci]
			if !imp.Attained {
				t.Fatalf("%v not attained under %v", ci, reg)
			}
			if imp.FirstSwitch > perfect.FirstSwitch {
				t.Errorf("%v under %v switched at %d, later than perfect %d",
					ci, reg, imp.FirstSwitch, perfect.FirstSwitch)
			}
		}
	}
}

// The figures' headline: percentile curves with more data move down, and
// Channel B's 90% percentile under perfect detection stays below its 99%
// percentile under imperfect detection for most of the sweep (the ≤9%
// confidence-error band).
func TestTrajectoryShape(t *testing.T) {
	s1 := runStudy(t, StudyConfig{Scenario: relmodel.Scenario1(), Step: 1000,
		Grid: coarse, Seed: 42})
	traj := s1.Trajectory
	if len(traj) < 10 {
		t.Fatalf("trajectory too short: %d", len(traj))
	}
	first, last := traj[0], traj[len(traj)-1]
	if last.B99Perfect >= first.B99Perfect {
		t.Errorf("B99 perfect did not tighten: %v -> %v", first.B99Perfect, last.B99Perfect)
	}
	if last.B90Perfect >= last.B99Perfect {
		t.Errorf("90%% percentile above 99%% at the end: %v vs %v",
			last.B90Perfect, last.B99Perfect)
	}
	within := 0
	for _, p := range traj {
		if p.B90Perfect <= p.B99Omission {
			within++
		}
	}
	if frac := float64(within) / float64(len(traj)); frac < 0.8 {
		t.Errorf("B90 perfect below B99 omission only %.0f%% of checkpoints", 100*frac)
	}
	// All percentiles live in the prior support.
	for _, p := range traj {
		for _, v := range []float64{p.A99Perfect, p.B90Perfect, p.B99Perfect, p.B99Omission, p.B99BackToBack} {
			if v <= 0 || v > 0.002 {
				t.Fatalf("percentile %v outside (0, 0.002]", v)
			}
		}
	}
}

// Full-resolution fidelity check against the published Table 2 values.
// Slow (~6 s); skipped in -short runs.
func TestTable2PaperFidelity(t *testing.T) {
	if testing.Short() {
		t.Skip("full-resolution sweep")
	}
	grid := GridConfig{A: 80, B: 80, C: 24, AB: 120}
	s1 := runStudy(t, StudyConfig{Scenario: relmodel.Scenario1(), Step: 500, Grid: grid, Seed: 42})
	s2 := runStudy(t, StudyConfig{Scenario: relmodel.Scenario2(), Step: 100,
		MaxDemands: 15000, Grid: grid, Seed: 42})

	// Paper: 35,500. Accept the right order of magnitude and side.
	c1 := s1.Regimes[RegimePerfect].Criteria[Criterion1]
	if !c1.Attained || c1.FirstSwitch < 20000 || c1.FirstSwitch > 50000 {
		t.Errorf("scenario 1 perfect criterion 1 = %+v, paper 35,500", c1)
	}
	// Paper: 40,000.
	c3 := s1.Regimes[RegimePerfect].Criteria[Criterion3]
	if !c3.Attained || c3.FirstSwitch < 20000 {
		t.Errorf("scenario 1 perfect criterion 3 = %+v, paper 40,000", c3)
	}
	// Paper: 1,400.
	c1s2 := s2.Regimes[RegimePerfect].Criteria[Criterion1]
	if !c1s2.Attained || c1s2.FirstSwitch < 500 || c1s2.FirstSwitch > 4000 {
		t.Errorf("scenario 2 perfect criterion 1 = %+v, paper 1,400", c1s2)
	}
	// Paper: 10,000.
	c2s2 := s2.Regimes[RegimePerfect].Criteria[Criterion2]
	if !c2s2.Attained || c2s2.FirstSwitch < 4000 {
		t.Errorf("scenario 2 perfect criterion 2 = %+v, paper 10,000", c2s2)
	}
	// Paper: back-to-back reaches criterion 2 earlier (6,000 vs 10,000).
	c2b2b := s2.Regimes[RegimeBackToBack].Criteria[Criterion2]
	if !c2b2b.Attained || c2b2b.FirstSwitch > c2s2.FirstSwitch {
		t.Errorf("scenario 2 b2b criterion 2 = %+v, not earlier than perfect %+v", c2b2b, c2s2)
	}
}

func TestAvailabilityStudyStructure(t *testing.T) {
	rows, err := RunAvailabilityStudy(AvailabilityConfig{Correlated: true, Requests: 500, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("got %d rows, want 4 runs × 3 timeouts", len(rows))
	}
	seen := map[[2]int]bool{}
	for _, row := range rows {
		seen[[2]int{row.Run, int(row.TimeOut * 10)}] = true
		if row.Result == nil {
			t.Fatal("nil result")
		}
		if got := row.Result.System.Total() + row.Result.System.NRDT; got != 500 {
			t.Fatalf("run %d: system accounts for %d of 500", row.Run, got)
		}
	}
	if len(seen) != 12 {
		t.Fatalf("duplicate blocks: %v", seen)
	}
}

// Per-release MET must be identical across the timeout columns of one run
// — the property visible in the paper's tables.
func TestAvailabilityMETConstantAcrossTimeouts(t *testing.T) {
	rows, err := RunAvailabilityStudy(AvailabilityConfig{Correlated: true, Requests: 1000, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	met := map[int][2]float64{}
	for _, row := range rows {
		got := [2]float64{row.Result.Rel1.MET, row.Result.Rel2.MET}
		if prev, ok := met[row.Run]; ok && prev != got {
			t.Fatalf("run %d release MET varies across timeouts: %v vs %v", row.Run, prev, got)
		}
		met[row.Run] = got
	}
}

func TestModeAblation(t *testing.T) {
	rows, err := RunModeAblation(1, 2.0, 1000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d ablation rows", len(rows))
	}
	byMode := map[string]*Result{}
	for _, r := range rows {
		byMode[r.Label] = r.Result
	}
	seq := byMode["mode 4: sequential, min capacity"]
	par := byMode["mode 1: parallel, max reliability"]
	if seq.System.Executions >= par.System.Executions {
		t.Fatal("sequential did not save capacity")
	}
	fast := byMode["mode 2: parallel, max responsiveness"]
	if fast.System.MET >= par.System.MET {
		t.Fatal("responsiveness mode not faster")
	}
	if _, err := RunModeAblation(9, 2.0, 100, 1); err == nil {
		t.Fatal("invalid run ID accepted")
	}
}

func TestFormatters(t *testing.T) {
	s2 := runStudy(t, StudyConfig{Scenario: relmodel.Scenario2(), Step: 500,
		MaxDemands: 2000, Grid: coarse, Seed: 3})
	tbl := FormatTable2(s2)
	for _, want := range []string{"Table 2", "scenario-2", "criterion-1", "perfect", "back-to-back", "paper"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("FormatTable2 output missing %q:\n%s", want, tbl)
		}
	}
	fig := FormatTrajectory(s2)
	if !strings.Contains(fig, "Figure 8") || !strings.Contains(fig, "demands") {
		t.Errorf("FormatTrajectory output malformed:\n%s", fig)
	}
	rows, err := RunAvailabilityStudy(AvailabilityConfig{Correlated: false, Requests: 500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	tbl6 := FormatAvailability("Table 6", rows)
	for _, want := range []string{"Table 6", "MET", "NRDT", "System"} {
		if !strings.Contains(tbl6, want) {
			t.Errorf("FormatAvailability missing %q", want)
		}
	}
	ab, err := RunModeAblation(1, 1.5, 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	abStr := FormatModeAblation(ab)
	if !strings.Contains(abStr, "sequential") || !strings.Contains(abStr, "executions") {
		t.Errorf("FormatModeAblation malformed:\n%s", abStr)
	}
}

func TestPaperReferenceData(t *testing.T) {
	p := PaperTable2()
	if p["scenario-1"]["perfect"].Criterion1 != "35,500 demands" {
		t.Fatal("paper table 2 cell wrong")
	}
	if len(p) != 2 || len(p["scenario-2"]) != 3 {
		t.Fatal("paper table 2 incomplete")
	}
	t5 := PaperTable5SystemRun1()
	if t5[1.5].CR != 6762 || t5[3.0].NRDT != 194 {
		t.Fatal("paper table 5 anchors wrong")
	}
	t6 := PaperTable6SystemRun1()
	if t6[1.5].CR != 7759 {
		t.Fatal("paper table 6 anchors wrong")
	}
}
