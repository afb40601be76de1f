// Package bayes implements the paper's confidence machinery (§5.1):
// Bayesian inference of the probability of failure on demand (pfd) of Web
// Service releases.
//
// Two inference models are provided.
//
// Black box (Fig 6): a single service observed as success/failure per
// demand. The prior over the pfd is a Beta distribution scaled onto
// [0, Upper]; the likelihood is binomial. The posterior is computed on a
// one-dimensional grid (the scaled Beta prior is not conjugate with the
// truncated-support binomial, so a numeric posterior keeps the model
// faithful to the paper rather than forcing conjugacy).
//
// White box (Table 1, eq. 2-5): two releases A (old) and B (new) run
// side by side; each demand yields one of four joint outcomes
// (both fail / A only / B only / neither). The prior is a trivariate
// distribution over (P_A, P_B, P_AB): independent scaled-Beta marginals
// for P_A and P_B, and the paper's "indifference" prior
// P_AB | P_A, P_B ~ Uniform[0, min(P_A, P_B)]. The likelihood is
// multinomial with cell probabilities
//
//	p11 = P_AB, p10 = P_A − P_AB, p01 = P_B − P_AB, p00 = 1 − P_A − P_B + P_AB.
//
// The posterior is evaluated on a three-dimensional grid; marginal
// posteriors for P_A, P_B and P_AB are exposed as discrete distributions
// from which confidences P(P ≤ T) and percentiles are read (eq. 6).
//
// The package also provides the three switch criteria of §5.1.1.2 and the
// imperfect-detection regimes of §5.1.1.3 (omission oracles and
// back-to-back testing).
package bayes

import (
	"errors"
	"fmt"
	"math"

	"wsupgrade/internal/pool"
	"wsupgrade/internal/stats"
	"wsupgrade/internal/xrand"
)

// ErrBadConfig reports an invalid inference configuration.
var ErrBadConfig = errors.New("bayes: bad configuration")

// JointOutcome is one of the four per-demand events of Table 1.
type JointOutcome int

// Joint outcomes, in the paper's α, β, γ, δ order.
const (
	// BothFail (α): both releases fail on the demand. Probability p11.
	BothFail JointOutcome = iota + 1
	// AOnlyFails (β): the old release fails, the new succeeds. p10.
	AOnlyFails
	// BOnlyFails (γ): the new release fails, the old succeeds. p01.
	BOnlyFails
	// NeitherFails (δ): both releases succeed. p00.
	NeitherFails
)

// String implements fmt.Stringer.
func (o JointOutcome) String() string {
	switch o {
	case BothFail:
		return "both-fail"
	case AOnlyFails:
		return "a-only-fails"
	case BOnlyFails:
		return "b-only-fails"
	case NeitherFails:
		return "neither-fails"
	default:
		return fmt.Sprintf("JointOutcome(%d)", int(o))
	}
}

// Outcome maps the pair of per-release failure indicators to the joint
// outcome they represent.
func Outcome(aFailed, bFailed bool) JointOutcome {
	switch {
	case aFailed && bFailed:
		return BothFail
	case aFailed:
		return AOnlyFails
	case bFailed:
		return BOnlyFails
	default:
		return NeitherFails
	}
}

// JointCounts accumulates the observed joint outcomes (r1, r2, r3 and the
// total N of Table 1; r4 is derived). The zero value is an empty record.
type JointCounts struct {
	N     int // demands observed
	Both  int // r1: both releases failed
	AOnly int // r2: only the old release failed
	BOnly int // r3: only the new release failed
}

// Add records one joint outcome.
func (c *JointCounts) Add(o JointOutcome) {
	c.N++
	switch o {
	case BothFail:
		c.Both++
	case AOnlyFails:
		c.AOnly++
	case BOnlyFails:
		c.BOnly++
	case NeitherFails:
		// counted via N only
	default:
		panic(fmt.Sprintf("bayes: JointCounts.Add(%d): unknown outcome", int(o)))
	}
}

// Merge folds another record into c field-wise: a restored campaign
// snapshot into the live record, so the inference sees what a single
// accumulator that never stopped would hold.
func (c *JointCounts) Merge(o JointCounts) {
	c.N += o.N
	c.Both += o.Both
	c.AOnly += o.AOnly
	c.BOnly += o.BOnly
}

// Neither returns r4 = N − r1 − r2 − r3.
func (c JointCounts) Neither() int { return c.N - c.Both - c.AOnly - c.BOnly }

// AFailures returns the recorded failures of the old release (r1 + r2).
func (c JointCounts) AFailures() int { return c.Both + c.AOnly }

// BFailures returns the recorded failures of the new release (r1 + r3).
func (c JointCounts) BFailures() int { return c.Both + c.BOnly }

// Valid reports whether the counts are internally consistent.
func (c JointCounts) Valid() bool {
	return c.N >= 0 && c.Both >= 0 && c.AOnly >= 0 && c.BOnly >= 0 && c.Neither() >= 0
}

// ---------------------------------------------------------------------------
// Detection regimes (§5.1.1.3)

// Detector transforms the true per-demand failure indicators of the two
// releases into the indicators actually recorded by the monitoring
// subsystem. Imperfect detectors bias the inference; the paper studies
// omission failures and pessimistic back-to-back testing.
type Detector interface {
	// Detect maps true failure indicators to recorded ones.
	Detect(aFailed, bFailed bool) (recordedA, recordedB bool)
}

// PerfectDetector records failures exactly as they occur.
type PerfectDetector struct{}

var _ Detector = PerfectDetector{}

// Detect implements Detector.
func (PerfectDetector) Detect(aFailed, bFailed bool) (bool, bool) { return aFailed, bFailed }

// OmissionDetector models imperfect per-release oracles: each true failure
// is independently missed (recorded as success) with probability Pomit.
// Missed failures make the observations optimistic.
type OmissionDetector struct {
	Pomit float64
	rng   *xrand.Rand
}

var _ Detector = (*OmissionDetector)(nil)

// NewOmissionDetector returns a detector that misses each failure with
// probability pomit, drawing from the given stream.
func NewOmissionDetector(pomit float64, rng *xrand.Rand) (*OmissionDetector, error) {
	if pomit < 0 || pomit > 1 || math.IsNaN(pomit) {
		return nil, fmt.Errorf("%w: omission probability %v", ErrBadConfig, pomit)
	}
	if rng == nil {
		return nil, fmt.Errorf("%w: nil rng", ErrBadConfig)
	}
	return &OmissionDetector{Pomit: pomit, rng: rng}, nil
}

// Detect implements Detector.
func (d *OmissionDetector) Detect(aFailed, bFailed bool) (bool, bool) {
	if aFailed && d.rng.Bool(d.Pomit) {
		aFailed = false
	}
	if bFailed && d.rng.Bool(d.Pomit) {
		bFailed = false
	}
	return aFailed, bFailed
}

// BackToBackDetector models detection purely by comparing the two
// releases' responses, under the paper's pessimistic assumption that all
// coincident failures are identical and non-evident: a demand on which
// both releases fail is recorded as a joint success ('11' → '00').
// Discordant demands are recorded truthfully.
type BackToBackDetector struct{}

var _ Detector = BackToBackDetector{}

// Detect implements Detector.
func (BackToBackDetector) Detect(aFailed, bFailed bool) (bool, bool) {
	if aFailed && bFailed {
		return false, false
	}
	return aFailed, bFailed
}

// ---------------------------------------------------------------------------
// Black-box inference

// BlackBox infers the pfd of a single service from (n, r) success/failure
// observations under a scaled-Beta prior, on a one-dimensional grid.
type BlackBox struct {
	prior stats.ScaledBeta
	xs    []float64 // support midpoints
	logPr []float64 // log prior weight per point
}

// NewBlackBox builds a black-box inference engine with the given prior and
// grid resolution (number of support points; 400 is a good default).
func NewBlackBox(prior stats.ScaledBeta, grid int) (*BlackBox, error) {
	if err := prior.Validate(); err != nil {
		return nil, fmt.Errorf("bayes: black-box prior: %w", err)
	}
	if grid < 2 {
		return nil, fmt.Errorf("%w: black-box grid %d", ErrBadConfig, grid)
	}
	b := &BlackBox{
		prior: prior,
		xs:    make([]float64, grid),
		logPr: make([]float64, grid),
	}
	h := prior.Upper / float64(grid)
	for i := 0; i < grid; i++ {
		x := (float64(i) + 0.5) * h
		b.xs[i] = x
		b.logPr[i] = prior.LogPDF(x) // + log h, constant, cancels in normalization
	}
	return b, nil
}

// Posterior returns the posterior pfd distribution after observing r
// failures in n demands.
func (b *BlackBox) Posterior(n, r int) (*stats.Grid1D, error) {
	if n < 0 || r < 0 || r > n {
		return nil, fmt.Errorf("%w: black-box observation n=%d r=%d", ErrBadConfig, n, r)
	}
	g := &stats.Grid1D{
		Xs: append([]float64(nil), b.xs...),
		Ws: make([]float64, len(b.xs)),
	}
	logs := make([]float64, len(b.xs))
	maxL := math.Inf(-1)
	for i, x := range b.xs {
		ll := b.logPr[i] + float64(r)*math.Log(x) + float64(n-r)*math.Log(1-x)
		logs[i] = ll
		if ll > maxL {
			maxL = ll
		}
	}
	for i, ll := range logs {
		g.Ws[i] = math.Exp(ll - maxL)
	}
	if err := g.Normalize(); err != nil {
		return nil, fmt.Errorf("bayes: black-box posterior: %w", err)
	}
	return g, nil
}

// ---------------------------------------------------------------------------
// White-box inference

// WhiteBoxConfig parameterizes the trivariate inference engine.
type WhiteBoxConfig struct {
	// PriorA is the prior pfd distribution of the old release.
	PriorA stats.ScaledBeta
	// PriorB is the prior pfd distribution of the new release.
	PriorB stats.ScaledBeta
	// GridA, GridB are the marginal grid resolutions (default 100).
	GridA, GridB int
	// GridC is the resolution of the conditional P_AB grid (default 40).
	GridC int
	// GridAB is the bin count of the reported P_AB marginal (default 200).
	GridAB int
}

func (c *WhiteBoxConfig) applyDefaults() {
	if c.GridA == 0 {
		c.GridA = 100
	}
	if c.GridB == 0 {
		c.GridB = 100
	}
	if c.GridC == 0 {
		c.GridC = 40
	}
	if c.GridAB == 0 {
		c.GridAB = 200
	}
}

// WhiteBox is the trivariate inference engine. The expensive parts of the
// model — the prior weights, the per-cell log outcome probabilities and
// each cell's bin in the reported P_AB marginal — are precomputed once at
// construction. A Posterior call then costs what its evidence requires:
// one streaming pass for the neither-fails term and one per failure
// outcome that has been observed at all (failures are rare in the
// paper's regime), and one exponential per cell that can still
// contribute to the normalised result — cells more than pruneBelow under
// the maximum log-weight are skipped (DESIGN.md §2.2). A caller whose
// record only grows hands the last result back (PosteriorFrom) and pays
// for the cells that can still carry mass instead of the grid. The
// engine can therefore be queried on every demand, not only at
// monitoring checkpoints.
//
// The model of a WhiteBox is immutable after construction and the engine
// is safe for concurrent use; the only mutable state is the pool that
// recycles the per-call scratch.
type WhiteBox struct {
	cfg WhiteBoxConfig

	paXs, pbXs, abXs []float64 // marginal support midpoints

	// Flattened cell arrays of size GridA*GridB*GridC, indexed
	// (i*GridB + j)*GridC + k.
	logPrior           []float64
	l11, l10, l01, l00 []float64
	abBin              []int32 // bin of the cell's P_AB value in the reported marginal

	// pruneBelow is K: a cell whose log-weight is more than K under the
	// maximum is left out of the sums. K = ln(cells) + 54·ln 2, so all
	// skipped cells together weigh less than 2⁻⁵⁴ of the largest cell —
	// under half an ulp of the normalising sum, which is at least 1.
	pruneBelow float64

	// maxLog is the largest entry of l11, l10, l01 and l00: the most one
	// more demand of that outcome can lift any cell's log-weight.
	maxLog [4]float64

	scratch pool.Slice[float64] // per-call scratch, len scratchLen
}

// NewWhiteBox precomputes the inference grids.
func NewWhiteBox(cfg WhiteBoxConfig) (*WhiteBox, error) {
	cfg.applyDefaults()
	if err := cfg.PriorA.Validate(); err != nil {
		return nil, fmt.Errorf("bayes: white-box prior A: %w", err)
	}
	if err := cfg.PriorB.Validate(); err != nil {
		return nil, fmt.Errorf("bayes: white-box prior B: %w", err)
	}
	if cfg.GridA < 2 || cfg.GridB < 2 || cfg.GridC < 1 || cfg.GridAB < 2 {
		return nil, fmt.Errorf("%w: white-box grid %d×%d×%d (marginal %d)",
			ErrBadConfig, cfg.GridA, cfg.GridB, cfg.GridC, cfg.GridAB)
	}
	if cfg.PriorA.Upper+cfg.PriorB.Upper >= 1 {
		return nil, fmt.Errorf("%w: pfd supports sum to %v ≥ 1",
			ErrBadConfig, cfg.PriorA.Upper+cfg.PriorB.Upper)
	}

	w := &WhiteBox{cfg: cfg}
	w.paXs = midpoints(cfg.PriorA.Upper, cfg.GridA)
	w.pbXs = midpoints(cfg.PriorB.Upper, cfg.GridB)
	abUpper := math.Min(cfg.PriorA.Upper, cfg.PriorB.Upper)
	w.abXs = midpoints(abUpper, cfg.GridAB)

	cells := cfg.GridA * cfg.GridB * cfg.GridC
	w.logPrior = make([]float64, cells)
	w.l11 = make([]float64, cells)
	w.l10 = make([]float64, cells)
	w.l01 = make([]float64, cells)
	w.l00 = make([]float64, cells)
	w.abBin = make([]int32, cells)
	w.pruneBelow = math.Log(float64(cells)) + 54*math.Ln2

	logPrA := make([]float64, cfg.GridA)
	for i, pa := range w.paXs {
		logPrA[i] = cfg.PriorA.LogPDF(pa)
	}
	logPrB := make([]float64, cfg.GridB)
	for j, pb := range w.pbXs {
		logPrB[j] = cfg.PriorB.LogPDF(pb)
	}

	// P_AB's grid in a cell is the smaller pfd's alone, and so are log
	// P_AB and that release's own log(pfd − P_AB): they are computed once
	// per grid point of each release, leaving a cell two logarithms.
	ownA, ownB := smallerLogs(w.paXs, cfg.GridC), smallerLogs(w.pbXs, cfg.GridC)

	idx := 0
	w.maxLog = [4]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for i, pa := range w.paXs {
		for j, pb := range w.pbXs {
			// P_AB | P_A, P_B ~ Uniform[0, min(P_A, P_B)]: each conditional
			// grid point carries weight 1/GridC; the 1/min density and the
			// min/GridC cell width cancel, so the conditional weight is
			// uniform and constant, and drops out of the normalization
			// entirely. math.Min(pa, pb) is pa only when pa < pb.
			own, aSmaller := ownB[j*cfg.GridC:(j+1)*cfg.GridC], pa < pb
			if aSmaller {
				own = ownA[i*cfg.GridC : (i+1)*cfg.GridC]
			}
			lp := logPrA[i] + logPrB[j]
			for _, o := range own {
				pab := o.pab
				bin := int(float64(cfg.GridAB) * pab / abUpper)
				if bin >= cfg.GridAB {
					bin = cfg.GridAB - 1
				}
				w.abBin[idx] = int32(bin)
				w.logPrior[idx] = lp
				w.l11[idx] = o.l11
				if aSmaller {
					w.l10[idx], w.l01[idx] = o.lOwn, math.Log(pb-pab)
				} else {
					w.l10[idx], w.l01[idx] = math.Log(pa-pab), o.lOwn
				}
				w.l00[idx] = math.Log1p(-(pa + pb - pab))
				idx++
			}
			// Along a row only P_AB grows: l11 and l00 peak at the row's
			// last cell, l10 and l01 at its first.
			first, last := idx-cfg.GridC, idx-1
			for o, l := range [4]float64{w.l11[last], w.l10[first], w.l01[first], w.l00[last]} {
				w.maxLog[o] = max(w.maxLog[o], l)
			}
		}
	}
	return w, nil
}

// smallerLog is what a cell takes from the release whose pfd x is the
// smaller of its two, at one point of the conditional grid: P_AB, log
// P_AB and log(x − P_AB).
type smallerLog struct{ pab, l11, lOwn float64 }

// smallerLogs returns the smallerLog of each grid point x and each
// conditional point k, at x's index times gridC plus k.
func smallerLogs(xs []float64, gridC int) []smallerLog {
	out := make([]smallerLog, 0, len(xs)*gridC)
	for _, x := range xs {
		for k := 0; k < gridC; k++ {
			pab := x * (float64(k) + 0.5) / float64(gridC)
			out = append(out, smallerLog{pab, math.Log(pab), math.Log(x - pab)})
		}
	}
	return out
}

// Config returns the configuration the engine was built with.
func (w *WhiteBox) Config() WhiteBoxConfig { return w.cfg }

func midpoints(upper float64, n int) []float64 {
	xs := make([]float64, n)
	h := upper / float64(n)
	for i := range xs {
		xs[i] = (float64(i) + 0.5) * h
	}
	return xs
}

// Posterior computes the joint posterior for the given observation and
// returns its marginals. The call may be made concurrently. The weights
// of the returned marginals are the caller's own; their support points
// (Xs) are the engine's and must not be modified. It is PosteriorFrom
// with no predecessor.
func (w *WhiteBox) Posterior(c JointCounts) (*Posterior, error) {
	return w.PosteriorFrom(nil, c)
}

// PosteriorFrom is Posterior for a caller that holds prev, an earlier
// result of this engine (nil for none): when prev's frontier still
// covers c, and tightly, only the frontier's cells are evaluated, and
// the marginals are bit for bit those of the full pass (DESIGN.md §2.2;
// DECISIONS.md, "the frontier pass, with its proof"). prev is only
// read, so racing callers may share one.
func (w *WhiteBox) PosteriorFrom(prev *Posterior, c JointCounts) (*Posterior, error) {
	scratch := w.scratch.Get(w.scratchLen())[:w.scratchLen()]
	post, _, err := w.pass(prev, c, scratch, true)
	w.scratch.Put(scratch)
	return post, err
}

// ConfidencesFrom is PosteriorFrom(prev, c) read at target: it returns
// P(P_A ≤ target) and P(P_B ≤ target), bit for bit what that
// posterior's ConfidenceA and ConfidenceB return, for a caller that
// needs only those two. The marginals are accumulated in the engine's
// pooled scratch, so the call allocates nothing unless a full pass
// leaves a new frontier; next is then a Posterior carrying it. Otherwise
// next is prev when prev's frontier answered and nil when it did not: a
// caller that hands next on as its following query's prev pays what a
// chain of PosteriorFrom calls would.
func (w *WhiteBox) ConfidencesFrom(prev *Posterior, c JointCounts, target float64) (confA, confB float64, next *Posterior, err error) {
	scratch := w.scratch.Get(w.scratchLen())[:w.scratchLen()]
	post, fromPrev, err := w.pass(prev, c, scratch, false)
	switch {
	case err != nil:
	case post != nil:
		confA, confB, next = post.ConfidenceA(target), post.ConfidenceB(target), post
	default:
		nA, nB := w.cfg.GridA, w.cfg.GridB
		ws := scratch[2*len(w.logPrior):]
		a := stats.Grid1D{Xs: w.paXs, Ws: ws[:nA]}
		b := stats.Grid1D{Xs: w.pbXs, Ws: ws[nA : nA+nB]}
		confA, confB = a.CDF(target), b.CDF(target)
		if fromPrev {
			next = prev
		}
	}
	w.scratch.Put(scratch)
	return confA, confB, next, err
}

// scratchLen is the length of the per-call scratch: the log-weights and
// their cells, then the three marginals of a call that keeps them there.
func (w *WhiteBox) scratchLen() int {
	return 2*len(w.logPrior) + w.cfg.GridA + w.cfg.GridB + w.cfg.GridAB
}

// pass is the posterior at c that both PosteriorFrom and ConfidencesFrom
// take, from prev's frontier (fromPrev) or over the whole grid. Its three
// normalised marginals go into a new Posterior when always is set or the
// pass leaves a new frontier; otherwise post is nil and they are left in
// scratch, after its first 2·cells entries, in A, B, AB order.
func (w *WhiteBox) pass(prev *Posterior, c JointCounts, scratch []float64, always bool) (post *Posterior, fromPrev bool, err error) {
	if !c.Valid() {
		return nil, false, fmt.Errorf("%w: inconsistent counts %+v", ErrBadConfig, c)
	}
	cells := len(w.logPrior)
	var logs, at []float64

	var front frontier
	var maxL float64
	covered := prev != nil && prev.front.covers(w, c)
	if covered {
		logs, at = scratch[:len(prev.front.cells)], prev.front.cells
		maxL = w.logWeightsAt(c, at, logs)
		// Evidence concentrates the mass and the list only ever covers
		// it: once half the listed cells would not make a fresh frontier,
		// the full pass is taken after all, to leave a tight one.
		fresh := 0
		for _, ll := range logs {
			if ll >= maxL-2*w.pruneBelow {
				fresh++
			}
		}
		covered = 2*fresh > len(logs)
	}
	keep := 0 // cells of a new frontier, to be moved out of the scratch
	if covered {
		front = prev.front
	} else {
		var argmax, n int
		maxL, argmax, n = w.logWeights(c, scratch[:cells], scratch[cells:2*cells])
		logs, at = scratch[:n], scratch[cells:cells+n]
		if n <= cells/frontierShare {
			keep = n
			front = frontier{model: w, base: c}
			for o, l := range [4][]float64{w.l11, w.l10, w.l01, w.l00} {
				front.gap[o] = w.maxLog[o] - l[argmax]
			}
		}
	}
	if math.IsInf(maxL, -1) {
		return nil, false, fmt.Errorf("%w: posterior has no mass (all cells -Inf)", ErrBadConfig)
	}

	// A result is two allocations: the three weight vectors — and, after
	// a full pass, the frontier's cells — share one backing array
	// (capacities clipped so an append cannot run one part into the next)
	// and the three grids ride with the Posterior.
	nA, nB, nAB := w.cfg.GridA, w.cfg.GridB, w.cfg.GridAB
	nW := nA + nB + nAB
	var ws []float64
	if always || keep > 0 {
		buf := make([]float64, nW+keep)
		ws = buf[:nW]
		if keep > 0 {
			front.cells = buf[nW:]
			copy(front.cells, at)
		}
	} else {
		ws = scratch[2*cells : 2*cells+nW]
		clear(ws)
	}
	wsA, wsB, wsAB := ws[:nA:nA], ws[nA:nA+nB:nA+nB], ws[nA+nB:nW:nW]

	t := w.accumulate(logs, at, maxL, wsA, wsB, wsAB)
	if t <= 0 || math.IsInf(t, 0) || math.IsNaN(t) {
		return nil, false, fmt.Errorf("%w: posterior mass %v", ErrBadConfig, t)
	}
	for i := range ws {
		ws[i] /= t
	}
	if !always && keep == 0 {
		return nil, covered, nil
	}

	res := &struct {
		Posterior
		a, b, ab stats.Grid1D
	}{
		Posterior: Posterior{Counts: c, front: front},
		a:         stats.Grid1D{Xs: w.paXs, Ws: wsA},
		b:         stats.Grid1D{Xs: w.pbXs, Ws: wsB},
		ab:        stats.Grid1D{Xs: w.abXs, Ws: wsAB},
	}
	res.A, res.B, res.AB = &res.a, &res.b, &res.ab
	return &res.Posterior, covered, nil
}

// frontier is what a full pass leaves on its Posterior for the queries
// that follow it: the cells within 2K of the maximum log-weight at the
// counts base. While the record only grows and the drift — how much more
// the new evidence can lift another cell than the arg-max cell — is at
// most K, every cell left out is still more than K under the new
// maximum: exactly a cell the full pass would prune. It is immutable.
type frontier struct {
	model *WhiteBox   // the engine cells indexes into; nil: no frontier
	base  JointCounts // the counts of the full pass
	gap   [4]float64  // maxLog[o] − lₒ[arg-max cell], in Table 1 order
	// cells are the frontier's cell indices, ascending. They are kept as
	// float64 (exact below 2⁵³) to live in the weights' allocation.
	cells []float64
}

// A frontier is kept only while it lists at most 1/frontierShare of the
// grid: a longer one saves under half of the full pass. driftGuard, in
// nats, is taken off the drift budget K to cover the rounding of the
// log-weights (under 10⁻³ for any record below 10¹⁰ demands).
const (
	frontierShare = 8
	driftGuard    = 1
)

// covers reports whether the frontier answers for the record c on w: c
// has only grown since base and the drift is within budget.
func (f *frontier) covers(w *WhiteBox, c JointCounts) bool {
	if f.model != w {
		return false
	}
	drift := 0.0
	for o, d := range [4]int{c.Both - f.base.Both, c.AOnly - f.base.AOnly, c.BOnly - f.base.BOnly, c.Neither() - f.base.Neither()} {
		if d < 0 {
			return false
		}
		drift += float64(d) * f.gap[o]
	}
	return drift <= w.pruneBelow-driftGuard
}

// logWeights is the full pass: it computes every cell's log-weight, finds
// the maximum and a cell that attains it, and then keeps — in place, in
// cell order — the n log-weights within 2K of the maximum, writing their
// cell indices to at.
//
//wsu:noalloc
func (w *WhiteBox) logWeights(c JointCounts, logs, at []float64) (maxL float64, argmax, n int) {
	cells := len(logs)

	// The prior plus one r·log p term per outcome, in Table 1 order. A
	// failure outcome never observed adds exactly 0 to every cell, so its
	// stream is not read at all; the neither-fails pass always runs and,
	// seeing the finished weights, finds their maximum.
	src := w.logPrior
	for _, t := range [3]struct {
		r float64
		l []float64
	}{
		{float64(c.Both), w.l11},
		{float64(c.AOnly), w.l10},
		{float64(c.BOnly), w.l01},
	} {
		if t.r == 0 {
			continue
		}
		r, l := t.r, t.l[:cells]
		for idx, v := range src[:cells] {
			logs[idx] = v + r*l[idx]
		}
		src = logs
	}
	r4, l00 := float64(c.Neither()), w.l00[:cells]
	maxL = math.Inf(-1)
	for idx, v := range src[:cells] {
		ll := v + r4*l00[idx]
		logs[idx] = ll
		if ll > maxL {
			maxL = ll
		}
	}
	cut := maxL - 2*w.pruneBelow
	for idx, ll := range logs {
		if ll >= cut { // rare once the evidence has concentrated
			if ll == maxL {
				argmax = idx
			}
			logs[n], at[n] = ll, float64(idx)
			n++
		}
	}
	return maxL, argmax, n
}

// logWeightsAt is the frontier pass: logs[j] becomes the log-weight of
// cell at[j], by logWeights' expression in logWeights' order (so to the
// same bits; a zero count adds exactly 0 there too), and the maximum is
// over those cells.
//
//wsu:noalloc
func (w *WhiteBox) logWeightsAt(c JointCounts, at, logs []float64) float64 {
	rs := [4]float64{float64(c.Both), float64(c.AOnly), float64(c.BOnly), float64(c.Neither())}
	ls := [4][]float64{w.l11, w.l10, w.l01, w.l00}
	maxL := math.Inf(-1)
	for j, f := range at {
		idx := int(f)
		ll := w.logPrior[idx]
		for o, r := range rs {
			if r != 0 {
				ll += r * ls[o][idx]
			}
		}
		logs[j] = ll
		if ll > maxL {
			maxL = ll
		}
	}
	return maxL
}

// accumulate adds the weight exp(ll − maxL) of every listed cell within
// pruneBelow of the (finite) maximum into the three zeroed marginal
// vectors and returns the total added. Both passes end here, so what a
// cell adds, and in which order, is the same for both.
//
//wsu:noalloc
func (w *WhiteBox) accumulate(logs, at []float64, maxL float64, wsA, wsB, wsAB []float64) float64 {
	var sum stats.KahanSum
	cut := maxL - w.pruneBelow
	nB, nC := w.cfg.GridB, w.cfg.GridC
	for j, ll := range logs {
		if ll >= cut {
			idx := int(at[j])
			row := idx / nC
			p := math.Exp(ll - maxL)
			wsA[row/nB] += p
			wsB[row%nB] += p
			wsAB[w.abBin[idx]] += p
			sum.Add(p)
		}
	}
	return sum.Sum()
}

// Posterior carries the marginal posterior distributions of the white-box
// model after an observation.
type Posterior struct {
	// Counts is the observation the posterior conditions on.
	Counts JointCounts
	// A is the marginal posterior of P_A (old release pfd).
	A *stats.Grid1D
	// B is the marginal posterior of P_B (new release pfd).
	B *stats.Grid1D
	// AB is the (binned) marginal posterior of P_AB (coincident failure).
	AB *stats.Grid1D

	front frontier // what PosteriorFrom may reuse; zero: nothing
}

// ConfidenceA returns P(P_A ≤ target | observations), eq. 6.
func (p *Posterior) ConfidenceA(target float64) float64 { return p.A.CDF(target) }

// ConfidenceB returns P(P_B ≤ target | observations).
func (p *Posterior) ConfidenceB(target float64) float64 { return p.B.CDF(target) }

// ConfidenceAB returns P(P_AB ≤ target | observations).
func (p *Posterior) ConfidenceAB(target float64) float64 { return p.AB.CDF(target) }

// PercentileA returns T_A^conf: the smallest t with P(P_A ≤ t) ≥ conf.
func (p *Posterior) PercentileA(conf float64) float64 { return p.A.Quantile(conf) }

// PercentileB returns T_B^conf.
func (p *Posterior) PercentileB(conf float64) float64 { return p.B.Quantile(conf) }

// ---------------------------------------------------------------------------
// Switch criteria (§5.1.1.2)

// Criterion decides, from the current posterior, whether the managed
// upgrade may switch the composite service to the new release.
type Criterion interface {
	// Satisfied reports whether the switch condition holds.
	Satisfied(p *Posterior) bool
}

// Criterion1 switches when the new release reaches the dependability level
// the old release offered at deployment time: if the prior gave
// P(P_A ≤ X) = conf, the upgrade lasts until P(P_B ≤ X) ≥ conf.
type Criterion1 struct {
	Confidence float64
	// Target is X: the prior conf-percentile of the old release.
	Target float64
}

var _ Criterion = Criterion1{}

// NewCriterion1 derives the target X from the old release's prior at the
// given confidence level.
func NewCriterion1(priorA stats.ScaledBeta, confidence float64) (Criterion1, error) {
	if confidence <= 0 || confidence >= 1 {
		return Criterion1{}, fmt.Errorf("%w: criterion 1 confidence %v", ErrBadConfig, confidence)
	}
	x, err := priorA.Quantile(confidence)
	if err != nil {
		return Criterion1{}, fmt.Errorf("bayes: criterion 1 target: %w", err)
	}
	return Criterion1{Confidence: confidence, Target: x}, nil
}

// Satisfied implements Criterion.
func (c Criterion1) Satisfied(p *Posterior) bool {
	return p.ConfidenceB(c.Target) >= c.Confidence
}

// Criterion2 switches when the new release reaches a predefined
// dependability target with a predefined confidence, e.g.
// P(P_B ≤ 10⁻³) ≥ 99%. The old release is irrelevant.
type Criterion2 struct {
	Confidence float64
	Target     float64
}

var _ Criterion = Criterion2{}

// Satisfied implements Criterion.
func (c Criterion2) Satisfied(p *Posterior) bool {
	return p.ConfidenceB(c.Target) >= c.Confidence
}

// Criterion3 switches when, at the given confidence, the new release is no
// worse than the old: T_B^conf ≤ T_A^conf on the evolving posteriors.
type Criterion3 struct {
	Confidence float64
}

var _ Criterion = Criterion3{}

// Satisfied implements Criterion.
func (c Criterion3) Satisfied(p *Posterior) bool {
	return p.PercentileB(c.Confidence) <= p.PercentileA(c.Confidence)
}
