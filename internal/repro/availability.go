package repro

import (
	"fmt"
	"time"

	"wsupgrade/internal/core"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/xrand"
)

// PaperTimeouts are the three middleware timeout settings of Tables 5-6.
var PaperTimeouts = []float64{1.5, 2.0, 3.0}

// Tally is one block's behaviour of a release, as the engine's monitor
// counted it, or of the system, as its consumers received it.
type Tally struct {
	Executions int // a release's invocations; the system's are all of them
	// MET is a release's mean scripted execution time whatever the
	// timeout, or the system's mean time to delivery plus the §5.2.2
	// adjudication overhead dT (eq. 8 in mode 1). Seconds.
	MET         float64
	MeanLatency time.Duration // the monitor's, over in-time responses
	// CR, EER, NER count responses within the timeout by kind, or the
	// delivered ones (EER includes the middleware's exception); NRDT
	// counts no response in time, for the system "Web Service unavailable".
	CR, EER, NER, NRDT int
}

// Total returns the number of responses.
func (t Tally) Total() int { return t.CR + t.EER + t.NER }

// Result is one block of demands served by the engine.
type Result struct{ Rel1, Rel2, System Tally }

// AvailabilityRow is one Run × TimeOut block of Table 5 or 6.
type AvailabilityRow struct {
	Run     int     // the paper's run number (1-4)
	TimeOut float64 // the middleware collection deadline, seconds
	Result  *Result
}

// AvailabilityConfig parameterizes a Table 5/6 regeneration.
type AvailabilityConfig struct {
	// Correlated selects Table 5 (true) or Table 6 (false).
	Correlated bool
	// Requests per block (default 10,000, the paper's setting).
	Requests int
	// Seed drives the script; each run derives its own stream from it.
	Seed uint64
	// Latency overrides the execution-time model (default: the paper's
	// §5.2.2 parameters).
	Latency *relmodel.Latency
	// Mode and Quorum override the engine's operating mode (default:
	// mode 1, parallel for maximum reliability, the measured one).
	Mode   core.Mode
	Quorum int
}

// block is one run of demands through a fresh engine on the harness.
type block struct {
	run        relmodel.Run
	correlated bool
	latency    relmodel.Latency
	timeout    float64
	requests   int
	seed       uint64
	mode       core.Mode
	quorum     int
}

// script draws a demand's kinds, then its execution times, from one
// stream, so a run's releases behave alike in every timeout column and
// mode.
func (b block) script(rng *xrand.Rand) (d demandScript) {
	if b.correlated {
		d.kinds[0], d.kinds[1] = b.run.SampleCorrelated(rng)
	} else {
		d.kinds[0], d.kinds[1] = b.run.SampleIndependent(rng)
	}
	d.secs[0], d.secs[1] = b.latency.Sample(rng)
	return d
}

func (b block) serve() (*Result, error) {
	if err := b.run.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadStudy, err)
	}
	if err := b.latency.Validate(); err != nil || !(b.timeout > 0) || b.requests <= 0 {
		return nil, fmt.Errorf("%w: latency %v, timeout %v, requests %d", ErrBadStudy, err, b.timeout, b.requests)
	}
	h := newHarness(b.script, b.seed)
	e, err := h.engine(core.Config{Timeout: seconds(b.timeout), Mode: b.mode, Quorum: b.quorum})
	if err != nil {
		return nil, err
	}
	res := &Result{}
	var delivery time.Duration
	for i := 0; i < b.requests; i++ {
		w, err := h.serve(e)
		if err != nil {
			return nil, fmt.Errorf("repro: demand %d: %w", i+1, err)
		}
		delivery += w.at
		res.System.count(w.kind)
	}
	if err := e.Close(); err != nil {
		return nil, err
	}
	res.System.MET = delivery.Seconds()/float64(b.requests) + b.latency.DT
	for i, t := range []*Tally{&res.Rel1, &res.Rel2} {
		if t.Executions = h.executed[i]; t.Executions == 0 {
			continue
		}
		res.System.Executions += t.Executions
		t.MET = h.execSecs[i] / float64(t.Executions)
		st, err := e.Stats(fmt.Sprint(i + 1))
		if err != nil {
			return nil, err
		}
		// The monitor counts the timeouts among the evident failures, and
		// the evident ones among oracle.Header's judged failures.
		t.MeanLatency = st.MeanLatency
		t.NRDT = st.Demands - st.Responses
		t.EER = st.Evident - t.NRDT
		t.NER = st.JudgedFailures - st.Evident
		t.CR = st.Responses - t.EER - t.NER
	}
	return res, nil
}

// count adds one delivered outcome; kind 0 is "Web Service unavailable".
func (t *Tally) count(kind relmodel.OutcomeKind) {
	switch kind {
	case relmodel.Correct:
		t.CR++
	case relmodel.EvidentFailure:
		t.EER++
	case relmodel.NonEvidentFailure:
		t.NER++
	default:
		t.NRDT++
	}
}

// RunAvailabilityStudy regenerates Table 5 (correlated=true) or Table 6
// (correlated=false): all four runs at the three paper timeouts, each
// block served by the engine on the harness.
func RunAvailabilityStudy(cfg AvailabilityConfig) ([]AvailabilityRow, error) {
	b := block{correlated: cfg.Correlated, latency: relmodel.PaperLatency(),
		requests: cfg.Requests, mode: cfg.Mode, quorum: cfg.Quorum}
	if b.requests == 0 {
		b.requests = 10000
	}
	if cfg.Latency != nil {
		b.latency = *cfg.Latency
	}
	var rows []AvailabilityRow
	for _, b.run = range relmodel.Runs() {
		// The paper reuses one random stream per run across the timeout
		// columns (per-release MET is identical in all three).
		b.seed = cfg.Seed ^ (uint64(b.run.ID) << 8)
		for _, b.timeout = range PaperTimeouts {
			res, err := b.serve()
			if err != nil {
				return nil, fmt.Errorf("repro: run %d timeout %v: %w", b.run.ID, b.timeout, err)
			}
			rows = append(rows, AvailabilityRow{Run: b.run.ID, TimeOut: b.timeout, Result: res})
		}
	}
	return rows, nil
}

// ModeAblationRow reports one operating mode's system-level outcome on a
// fixed workload — the §4.2 trade-off measured.
type ModeAblationRow struct {
	Mode   core.Mode
	Quorum int
	Label  string
	Result *Result
}

// RunModeAblation measures all four §4.2 operating modes on the same run,
// timeout and seed, exposing the reliability / responsiveness / capacity
// trade-offs the paper discusses qualitatively.
func RunModeAblation(runID int, timeout float64, requests int, seed uint64) ([]ModeAblationRow, error) {
	runs := relmodel.Runs()
	if runID < 1 || runID > len(runs) {
		return nil, fmt.Errorf("%w: run %d", ErrBadStudy, runID)
	}
	if requests == 0 {
		requests = 10000
	}
	rows := []ModeAblationRow{
		{Mode: core.ModeReliability, Label: "mode 1: parallel, max reliability"},
		{Mode: core.ModeResponsiveness, Label: "mode 2: parallel, max responsiveness"},
		{Mode: core.ModeDynamic, Quorum: 1, Label: "mode 3: parallel, quorum 1"},
		{Mode: core.ModeDynamic, Quorum: 2, Label: "mode 3: parallel, quorum 2"},
		{Mode: core.ModeSequential, Label: "mode 4: sequential, min capacity"},
	}
	for i, row := range rows {
		res, err := block{run: runs[runID-1], correlated: true, latency: relmodel.PaperLatency(),
			timeout: timeout, requests: requests, seed: seed, mode: row.Mode, quorum: row.Quorum}.serve()
		if err != nil {
			return nil, fmt.Errorf("repro: mode ablation %v: %w", row.Mode, err)
		}
		rows[i].Result = res
	}
	return rows, nil
}
