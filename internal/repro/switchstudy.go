// Package repro is the experiment harness: it regenerates every table and
// figure of the paper's evaluation section and formats them for
// side-by-side comparison with the published values. The §5.1 studies
// run on internal/bayes and internal/relmodel; the §5.2 studies run the
// shipping engine (core.Engine.ServeHTTP) against scripted releases on a
// virtual clock (harness.go).
//
// Experiment index:
//
//	Table 2  — duration of the managed upgrade under three switch
//	           criteria × three failure-detection regimes (RunSwitchStudy)
//	Fig 7/8  — percentile trajectories for Scenarios 1 and 2
//	           (RunSwitchStudy, Trajectory field)
//	Table 5  — availability/performance of the engine, correlated
//	           releases (RunAvailabilityStudy with correlated=true)
//	Table 6  — same with independent releases (correlated=false)
//
// plus the design ablations called out in DESIGN.md (grid resolution,
// operating modes, dynamic quorum).
package repro

import (
	"errors"
	"fmt"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/xrand"
)

// ErrBadStudy reports an invalid study configuration.
var ErrBadStudy = errors.New("repro: bad study configuration")

// Regime indexes the three failure-detection regimes of Table 2.
type Regime int

const (
	// RegimePerfect uses error-free oracles.
	RegimePerfect Regime = iota
	// RegimeOmission uses oracles that miss each failure with
	// probability Pomit (0.15 in the paper).
	RegimeOmission
	// RegimeBackToBack detects failures only by comparing the two
	// releases, pessimistically missing all coincident failures.
	RegimeBackToBack

	numRegimes = 3
)

// String implements fmt.Stringer.
func (r Regime) String() string {
	switch r {
	case RegimePerfect:
		return "perfect"
	case RegimeOmission:
		return "omission"
	case RegimeBackToBack:
		return "back-to-back"
	default:
		return fmt.Sprintf("Regime(%d)", int(r))
	}
}

// CriterionID indexes the three switch criteria of §5.1.1.2.
type CriterionID int

const (
	// Criterion1 switches when the new release reaches the old release's
	// prior dependability level.
	Criterion1 CriterionID = iota
	// Criterion2 switches when the new release meets an explicit target.
	Criterion2
	// Criterion3 switches when the new release is no worse than the old
	// on the evolving posteriors.
	Criterion3

	numCriteria = 3
)

// String implements fmt.Stringer.
func (c CriterionID) String() string {
	switch c {
	case Criterion1:
		return "criterion-1"
	case Criterion2:
		return "criterion-2"
	case Criterion3:
		return "criterion-3"
	default:
		return fmt.Sprintf("CriterionID(%d)", int(c))
	}
}

// GridConfig sets the white-box inference resolution for a study. Zero
// values take the bayes package defaults (100×100×40, 200 marginal bins).
type GridConfig struct {
	A, B, C, AB int
}

// StudyConfig parameterizes one Table 2 / Fig 7 / Fig 8 sweep.
type StudyConfig struct {
	// Scenario provides priors, ground truth and study length.
	Scenario relmodel.Scenario
	// Pomit is the omission regime's miss probability (default 0.15).
	Pomit float64
	// Step is the checkpoint granularity in demands (default 500).
	Step int
	// MaxDemands caps the sweep (default Scenario.Demands).
	MaxDemands int
	// Grid sets the inference resolution.
	Grid GridConfig
	// Seed drives the Monte-Carlo demand stream and the omission oracle.
	Seed uint64
}

func (c *StudyConfig) applyDefaults() {
	if c.Pomit == 0 {
		c.Pomit = 0.15
	}
	if c.Step == 0 {
		c.Step = 500
	}
	if c.MaxDemands == 0 {
		c.MaxDemands = c.Scenario.Demands
	}
}

// inference is the study's white-box model.
func (c *StudyConfig) inference() bayes.WhiteBoxConfig {
	return bayes.WhiteBoxConfig{
		PriorA: c.Scenario.PriorA,
		PriorB: c.Scenario.PriorB,
		GridA:  c.Grid.A,
		GridB:  c.Grid.B,
		GridC:  c.Grid.C,
		GridAB: c.Grid.AB,
	}
}

// criteria are the study's three switch rules, indexed by CriterionID.
func (c *StudyConfig) criteria() ([numCriteria]bayes.Criterion, error) {
	c1, err := bayes.NewCriterion1(c.Scenario.PriorA, c.Scenario.Confidence)
	if err != nil {
		return [numCriteria]bayes.Criterion{}, fmt.Errorf("repro: criterion 1: %w", err)
	}
	return [numCriteria]bayes.Criterion{
		c1,
		bayes.Criterion2{Confidence: c.Scenario.Confidence, Target: c.Scenario.C2Target},
		bayes.Criterion3{Confidence: c.Scenario.Confidence},
	}, nil
}

// CriterionResult reports when one criterion allowed the switch.
type CriterionResult struct {
	// Criterion names the switch rule.
	Criterion string
	// Attained reports whether the criterion was ever satisfied.
	Attained bool
	// FirstSwitch is the demand count at the first checkpoint satisfying
	// the criterion (0 when never attained).
	FirstSwitch int
	// StableSwitch is the first checkpoint from which the criterion
	// remained satisfied until the end of the sweep (0 when none). A
	// StableSwitch later than FirstSwitch is the paper's "oscillates
	// till N" phenomenon.
	StableSwitch int
}

// RegimeResult groups the per-criterion outcomes of one detection regime.
type RegimeResult struct {
	// Regime names the detection regime.
	Regime string
	// Criteria holds the outcomes indexed by CriterionID.
	Criteria [numCriteria]CriterionResult
}

// TrajectoryPoint is one checkpoint of the Fig 7 / Fig 8 percentile
// curves. All values are pfd percentiles (eq. 6 read at 90% or 99%).
type TrajectoryPoint struct {
	// Demands is the checkpoint position.
	Demands int
	// A99Perfect is Channel A's 99% percentile with perfect oracles.
	A99Perfect float64
	// B90Perfect is Channel B's 90% percentile with perfect oracles.
	B90Perfect float64
	// B99Perfect is Channel B's 99% percentile with perfect oracles.
	B99Perfect float64
	// B99Omission is Channel B's 99% percentile with omission oracles.
	B99Omission float64
	// B99BackToBack is Channel B's 99% percentile under back-to-back
	// testing.
	B99BackToBack float64
}

// StudyResult is a complete Table 2 block plus the figure trajectory for
// one scenario.
type StudyResult struct {
	// Scenario names the study.
	Scenario string
	// Config echoes the effective configuration.
	Config StudyConfig
	// Regimes holds the switch outcomes indexed by Regime.
	Regimes [numRegimes]RegimeResult
	// Trajectory holds the percentile curves (Fig 7 for Scenario 1,
	// Fig 8 for Scenario 2).
	Trajectory []TrajectoryPoint
	// Counts holds the final observation record per regime.
	Counts [numRegimes]bayes.JointCounts
	// TrueFailures counts the actual (pre-detection) failures of each
	// release over the sweep.
	TrueAFailures, TrueBFailures int
}

// RunSwitchStudy executes the Monte-Carlo + inference sweep behind
// Table 2 and Figures 7/8 for one scenario: it simulates the demand
// stream, pushes it through the three detection regimes, runs the
// white-box Bayesian inference at every checkpoint, evaluates the three
// switch criteria, and records the percentile trajectories.
func RunSwitchStudy(cfg StudyConfig) (*StudyResult, error) {
	cfg.applyDefaults()
	if err := cfg.Scenario.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStudy, err)
	}
	if cfg.Step <= 0 || cfg.MaxDemands <= 0 {
		return nil, fmt.Errorf("%w: step %d, max demands %d", ErrBadStudy, cfg.Step, cfg.MaxDemands)
	}

	engine, err := bayes.NewWhiteBox(cfg.inference())
	if err != nil {
		return nil, fmt.Errorf("repro: building inference engine: %w", err)
	}
	criteria, err := cfg.criteria()
	if err != nil {
		return nil, err
	}

	omission, err := bayes.NewOmissionDetector(cfg.Pomit, xrand.New(cfg.Seed^0x0a11dd7))
	if err != nil {
		return nil, fmt.Errorf("repro: omission detector: %w", err)
	}
	detectors := [numRegimes]bayes.Detector{
		RegimePerfect:    bayes.PerfectDetector{},
		RegimeOmission:   omission,
		RegimeBackToBack: bayes.BackToBackDetector{},
	}

	res := &StudyResult{Scenario: cfg.Scenario.Name, Config: cfg}
	var satisfied [numRegimes][numCriteria][]bool
	var checkpoints []int

	demandRng := xrand.New(cfg.Seed)
	var counts [numRegimes]bayes.JointCounts

	for demand := 1; demand <= cfg.MaxDemands; demand++ {
		aFailed, bFailed := cfg.Scenario.Truth.Sample(demandRng)
		if aFailed {
			res.TrueAFailures++
		}
		if bFailed {
			res.TrueBFailures++
		}
		for r := 0; r < numRegimes; r++ {
			ra, rb := detectors[r].Detect(aFailed, bFailed)
			counts[r].Add(bayes.Outcome(ra, rb))
		}

		if demand%cfg.Step != 0 && demand != cfg.MaxDemands {
			continue
		}
		checkpoints = append(checkpoints, demand)
		point := TrajectoryPoint{Demands: demand}
		for r := 0; r < numRegimes; r++ {
			post, err := engine.Posterior(counts[r])
			if err != nil {
				return nil, fmt.Errorf("repro: posterior at %d demands (%v): %w",
					demand, Regime(r), err)
			}
			for ci, crit := range criteria {
				satisfied[r][ci] = append(satisfied[r][ci], crit.Satisfied(post))
			}
			switch Regime(r) {
			case RegimePerfect:
				point.A99Perfect = post.PercentileA(0.99)
				point.B90Perfect = post.PercentileB(0.90)
				point.B99Perfect = post.PercentileB(0.99)
			case RegimeOmission:
				point.B99Omission = post.PercentileB(0.99)
			case RegimeBackToBack:
				point.B99BackToBack = post.PercentileB(0.99)
			}
		}
		res.Trajectory = append(res.Trajectory, point)
	}

	for r := 0; r < numRegimes; r++ {
		res.Counts[r] = counts[r]
		rr := RegimeResult{Regime: Regime(r).String()}
		for ci := 0; ci < numCriteria; ci++ {
			cr := CriterionResult{Criterion: CriterionID(ci).String()}
			sats := satisfied[r][ci]
			for k, ok := range sats {
				if ok {
					cr.Attained = true
					cr.FirstSwitch = checkpoints[k]
					break
				}
			}
			// Stable switch: last unsatisfied checkpoint + 1 position.
			lastBad := -1
			for k, ok := range sats {
				if !ok {
					lastBad = k
				}
			}
			if lastBad+1 < len(sats) {
				cr.StableSwitch = checkpoints[lastBad+1]
			}
			rr.Criteria[ci] = cr
		}
		res.Regimes[r] = rr
	}
	return res, nil
}
