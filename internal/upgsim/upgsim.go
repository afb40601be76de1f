// Package upgsim reproduces the paper's §5.2 event-driven simulation of
// the managed-upgrade middleware running two releases of a Web Service
// concurrently. It generates the rows of Tables 5 (correlated release
// behaviour) and 6 (independent behaviour): mean execution times, outcome
// counts by kind, and no-response-within-timeout counts, per release and
// for the adjudicated system.
//
// The model, exactly as specified in §5.2.1-5.2.2:
//
//   - each consumer request is forwarded to both releases;
//   - release i's execution time is T1 + T2(i), the T1 draw shared
//     between the releases (eq. 7), all components exponential;
//   - the middleware waits for the responses but no longer than TimeOut,
//     adjudicates what it has collected by the §5.2.1 rules, and delivers
//     at min(TimeOut, max(exec times)) + dT (eq. 8);
//   - response kinds are either correlated through the conditional
//     matrices of Table 4 or sampled independently from the marginals of
//     Table 3.
//
// Beyond the paper's measured configuration, the simulator implements all
// four operating modes of §4.2, so the trade-offs the paper discusses
// qualitatively (reliability vs responsiveness vs server capacity) can be
// measured — see the mode ablation bench.
//
// Requests do not interact, and every draw is taken in request order, so
// each request's outcome is tallied as it is sampled: the counts are
// commutative sums, and the seeded streams alone make a run
// deterministic.
package upgsim

import (
	"errors"
	"fmt"
	"math"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/xrand"
)

// ErrBadConfig reports an invalid simulation configuration.
var ErrBadConfig = errors.New("upgsim: bad configuration")

// Mode selects the middleware operating mode (§4.2).
type Mode int

const (
	// ParallelReliability (mode 1) executes all releases concurrently,
	// waits for every response (bounded by TimeOut) and adjudicates.
	// This is the configuration measured in Tables 5 and 6.
	ParallelReliability Mode = iota + 1
	// ParallelResponsiveness (mode 2) executes all releases concurrently
	// and returns the fastest non-evidently-incorrect response.
	ParallelResponsiveness
	// ParallelDynamic (mode 3) executes all releases concurrently and
	// adjudicates as soon as Quorum responses are collected, or at
	// TimeOut, whichever is first.
	ParallelDynamic
	// Sequential (mode 4) executes the releases one after another,
	// invoking the next release only when the previous response was
	// evidently incorrect or absent; it minimizes server capacity.
	Sequential
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ParallelReliability:
		return "parallel-reliability"
	case ParallelResponsiveness:
		return "parallel-responsiveness"
	case ParallelDynamic:
		return "parallel-dynamic"
	case Sequential:
		return "sequential"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Config parameterizes one simulation run (one cell block of Table 5/6).
type Config struct {
	// Run selects the behaviour profiles and correlation structure.
	Run relmodel.Run
	// Correlated selects Table 5 (true) or Table 6 (false) sampling.
	Correlated bool
	// Latency is the execution-time model; PaperLatency() for the paper's.
	Latency relmodel.Latency
	// TimeOut is the middleware's collection deadline, seconds.
	TimeOut float64
	// Requests is the number of consumer requests (10,000 in the paper).
	Requests int
	// Seed drives all sampling.
	Seed uint64
	// Mode is the operating mode; the zero value means
	// ParallelReliability, the paper's measured configuration.
	Mode Mode
	// Quorum is the response count ParallelDynamic waits for
	// (default 1). Other modes ignore it.
	Quorum int
}

func (c Config) mode() Mode {
	if c.Mode == 0 {
		return ParallelReliability
	}
	return c.Mode
}

func (c Config) quorum() int {
	if c.Quorum == 0 {
		return 1
	}
	return c.Quorum
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Run.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if err := c.Latency.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if c.TimeOut <= 0 || math.IsNaN(c.TimeOut) {
		return fmt.Errorf("%w: timeout %v", ErrBadConfig, c.TimeOut)
	}
	if c.Requests <= 0 {
		return fmt.Errorf("%w: requests %d", ErrBadConfig, c.Requests)
	}
	switch c.mode() {
	case ParallelReliability, ParallelResponsiveness, Sequential:
	case ParallelDynamic:
		if c.quorum() < 1 || c.quorum() > 2 {
			return fmt.Errorf("%w: quorum %d with 2 releases", ErrBadConfig, c.quorum())
		}
	default:
		return fmt.Errorf("%w: mode %v", ErrBadConfig, c.Mode)
	}
	return nil
}

// ReleaseTally aggregates one release's behaviour over the run.
type ReleaseTally struct {
	// Executed counts how many times the release was invoked. Parallel
	// modes invoke every release on every request; Sequential invokes
	// later releases only on earlier failures.
	Executed int
	// MET is the mean raw execution time over executed invocations,
	// seconds. It is independent of TimeOut, matching the constant
	// per-release MET across the timeout columns of Tables 5-6.
	MET float64
	// TruncMET is the mean of min(TimeOut, execution time) over executed
	// invocations: the latency the middleware actually experiences.
	TruncMET float64
	// CR, EER, NER count responses received within TimeOut, by kind.
	CR, EER, NER int
	// NRDT counts invocations with no response within TimeOut.
	NRDT int
}

// Total returns the number of responses received within the timeout.
func (t ReleaseTally) Total() int { return t.CR + t.EER + t.NER }

// SystemTally aggregates the adjudicated system behaviour.
type SystemTally struct {
	// MET is the mean time to the adjudicated response over all
	// requests; in ParallelReliability it is
	// min(TimeOut, max(release times)) + dT (eq. 8).
	MET float64
	// CR, EER, NER count adjudicated responses by kind. EER includes the
	// middleware's own exception when every collected response was
	// evidently incorrect.
	CR, EER, NER int
	// NRDT counts requests for which no release responded within
	// TimeOut ("Web Service unavailable").
	NRDT int
	// Executions counts release invocations across the run — the server
	// capacity the mode consumed.
	Executions int
}

// Total returns the number of requests that received a response.
func (t SystemTally) Total() int { return t.CR + t.EER + t.NER }

// Result is one complete simulation outcome (one Run × TimeOut block).
type Result struct {
	Config Config
	Rel1   ReleaseTally
	Rel2   ReleaseTally
	System SystemTally
}

// Simulate runs the model to completion.
func Simulate(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := xrand.New(cfg.Seed)
	// Adjudication picks draw from their own stream so that the sampled
	// outcome/latency sequence — and with it the per-release raw MET —
	// is identical across timeouts and modes for a given seed.
	adjRng := xrand.New(cfg.Seed ^ 0x5ad31ca7e0001)
	res := &Result{Config: cfg}

	var metRel1, metRel2, truncRel1, truncRel2, metSys float64

	for i := 0; i < cfg.Requests; i++ {
		var k1, k2 relmodel.OutcomeKind
		if cfg.Correlated {
			k1, k2 = cfg.Run.SampleCorrelated(rng)
		} else {
			k1, k2 = cfg.Run.SampleIndependent(rng)
		}
		t1, t2 := cfg.Latency.Sample(rng)

		recordExec := func(tally *ReleaseTally, met, trunc *float64, t float64, k relmodel.OutcomeKind) {
			tally.Executed++
			*met += t
			*trunc += math.Min(cfg.TimeOut, t)
			if t <= cfg.TimeOut {
				tallyKind(tally, k)
			} else {
				tally.NRDT++
			}
		}

		switch cfg.mode() {
		case ParallelReliability, ParallelResponsiveness, ParallelDynamic:
			recordExec(&res.Rel1, &metRel1, &truncRel1, t1, k1)
			recordExec(&res.Rel2, &metRel2, &truncRel2, t2, k2)
			res.System.Executions += 2

			adjTime, verdict := adjudicateParallel(cfg, t1, t2, k1, k2, adjRng)
			metSys += adjTime
			tallySystem(&res.System, verdict)

		case Sequential:
			// Release 1 executes first; release 2 only if release 1
			// produced an evident failure or no response in time.
			recordExec(&res.Rel1, &metRel1, &truncRel1, t1, k1)
			res.System.Executions++
			firstOK := t1 <= cfg.TimeOut && k1 != relmodel.EvidentFailure
			if firstOK {
				metSys += t1 + cfg.Latency.DT
				tallySystem(&res.System, adjudicate.KindVerdict{Outcome: k1})
				break
			}
			secondStart := math.Min(cfg.TimeOut, t1)
			recordExec(&res.Rel2, &metRel2, &truncRel2, t2, k2)
			res.System.Executions++
			adjTime := secondStart + math.Min(cfg.TimeOut, t2) + cfg.Latency.DT
			metSys += adjTime
			var verdict adjudicate.KindVerdict
			switch {
			case t2 > cfg.TimeOut && t1 > cfg.TimeOut:
				verdict = adjudicate.KindVerdict{Unavailable: true}
			case t2 > cfg.TimeOut || k2 == relmodel.EvidentFailure:
				// Both attempts failed evidently (release 1 evidently or
				// by absence): the consumer sees an exception.
				verdict = adjudicate.KindVerdict{Outcome: relmodel.EvidentFailure}
			default:
				verdict = adjudicate.KindVerdict{Outcome: k2}
			}
			tallySystem(&res.System, verdict)
		}
	}

	if res.Rel1.Executed > 0 {
		res.Rel1.MET = metRel1 / float64(res.Rel1.Executed)
		res.Rel1.TruncMET = truncRel1 / float64(res.Rel1.Executed)
	}
	if res.Rel2.Executed > 0 {
		res.Rel2.MET = metRel2 / float64(res.Rel2.Executed)
		res.Rel2.TruncMET = truncRel2 / float64(res.Rel2.Executed)
	}
	res.System.MET = metSys / float64(cfg.Requests)
	return res, nil
}

// adjudicateParallel computes the delivery time and system verdict for the
// three parallel modes, from the sampled execution times and kinds.
func adjudicateParallel(cfg Config, t1, t2 float64, k1, k2 relmodel.OutcomeKind, rng *xrand.Rand) (float64, adjudicate.KindVerdict) {
	type arrival struct {
		t float64
		k relmodel.OutcomeKind
	}
	var inTime []arrival
	if t1 <= cfg.TimeOut {
		inTime = append(inTime, arrival{t1, k1})
	}
	if t2 <= cfg.TimeOut {
		inTime = append(inTime, arrival{t2, k2})
	}
	if len(inTime) == 2 && inTime[0].t > inTime[1].t {
		inTime[0], inTime[1] = inTime[1], inTime[0]
	}

	switch cfg.mode() {
	case ParallelResponsiveness:
		// Deliver the first valid response the moment it arrives.
		for _, a := range inTime {
			if a.k != relmodel.EvidentFailure {
				return a.t + cfg.Latency.DT, adjudicate.KindVerdict{Outcome: a.k}
			}
		}
		// No valid response ever arrives. If both releases responded
		// (evidently incorrect), the middleware knows at the second
		// arrival that no valid response can come and raises the
		// exception immediately; otherwise it waits out the timeout.
		if len(inTime) == 2 {
			return inTime[1].t + cfg.Latency.DT, adjudicate.KindVerdict{Outcome: relmodel.EvidentFailure}
		}
		if len(inTime) == 1 {
			return cfg.TimeOut + cfg.Latency.DT, adjudicate.KindVerdict{Outcome: relmodel.EvidentFailure}
		}
		return cfg.TimeOut + cfg.Latency.DT, adjudicate.KindVerdict{Unavailable: true}

	case ParallelDynamic:
		q := cfg.quorum()
		if len(inTime) >= q {
			collected := make([]relmodel.OutcomeKind, q)
			for i := 0; i < q; i++ {
				collected[i] = inTime[i].k
			}
			return inTime[q-1].t + cfg.Latency.DT, adjudicate.Kinds(collected, rng)
		}
		// Quorum not reached: adjudicate whatever arrived, at TimeOut.
		collected := make([]relmodel.OutcomeKind, len(inTime))
		for i, a := range inTime {
			collected[i] = a.k
		}
		return cfg.TimeOut + cfg.Latency.DT, adjudicate.Kinds(collected, rng)

	default: // ParallelReliability, eq. 8
		adjTime := math.Min(cfg.TimeOut, math.Max(t1, t2)) + cfg.Latency.DT
		collected := make([]relmodel.OutcomeKind, len(inTime))
		for i, a := range inTime {
			collected[i] = a.k
		}
		return adjTime, adjudicate.Kinds(collected, rng)
	}
}

func tallyKind(t *ReleaseTally, k relmodel.OutcomeKind) {
	switch k {
	case relmodel.Correct:
		t.CR++
	case relmodel.EvidentFailure:
		t.EER++
	case relmodel.NonEvidentFailure:
		t.NER++
	}
}

func tallySystem(t *SystemTally, v adjudicate.KindVerdict) {
	switch {
	case v.Unavailable:
		t.NRDT++
	case v.Outcome == relmodel.Correct:
		t.CR++
	case v.Outcome == relmodel.EvidentFailure:
		t.EER++
	default:
		t.NER++
	}
}
