// Package stats is the numeric substrate for the Bayesian confidence
// machinery and the simulation reports: special functions (log-Gamma,
// log-Beta, the regularized incomplete Beta function), scaled-Beta
// densities on an arbitrary support [0, upper], compensated summation,
// discrete distributions over grids, and streaming summaries.
//
// Everything here is pure computation over float64 with no global state.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrInvalidParam reports a parameter outside a function's domain.
var ErrInvalidParam = errors.New("stats: invalid parameter")

// LogGamma returns the natural log of the absolute value of the Gamma
// function, via the Lanczos approximation (g=7, n=9 coefficients).
func LogGamma(x float64) float64 {
	// Stdlib math.Lgamma exists; keep the signature local so callers do
	// not have to discard the sign term, which is always +1 on our domain.
	v, _ := math.Lgamma(x)
	return v
}

// LogBeta returns ln B(a, b) = lnΓ(a) + lnΓ(b) − lnΓ(a+b).
func LogBeta(a, b float64) float64 {
	return LogGamma(a) + LogGamma(b) - LogGamma(a+b)
}

// RegIncBeta returns the regularized incomplete Beta function I_x(a, b),
// the CDF at x of a Beta(a, b) random variable. It uses the continued
// fraction expansion (Lentz's algorithm) with the symmetry transform for
// numerical stability, as in Numerical Recipes.
func RegIncBeta(x, a, b float64) (float64, error) {
	if a <= 0 || b <= 0 {
		return 0, fmt.Errorf("%w: RegIncBeta a=%v b=%v", ErrInvalidParam, a, b)
	}
	if x <= 0 {
		return 0, nil
	}
	if x >= 1 {
		return 1, nil
	}
	lnFront := a*math.Log(x) + b*math.Log(1-x) - LogBeta(a, b)
	front := math.Exp(lnFront)
	if x < (a+1)/(a+b+2) {
		cf := betaCF(x, a, b)
		return front * cf / a, nil
	}
	cf := betaCF(1-x, b, a)
	return 1 - front*cf/b, nil
}

// betaCF evaluates the continued fraction for the incomplete Beta function
// by the modified Lentz method.
func betaCF(x, a, b float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-15
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := 2 * m
		aa := float64(m) * (b - float64(m)) * x / ((qam + float64(m2)) * (a + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + float64(m2)) * (qap + float64(m2)))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// BetaQuantile inverts the Beta(a, b) CDF by bisection on RegIncBeta.
// p outside [0, 1] is an error.
func BetaQuantile(p, a, b float64) (float64, error) {
	if p < 0 || p > 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("%w: BetaQuantile p=%v", ErrInvalidParam, p)
	}
	if a <= 0 || b <= 0 {
		return 0, fmt.Errorf("%w: BetaQuantile a=%v b=%v", ErrInvalidParam, a, b)
	}
	lo, hi := 0.0, 1.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		cdf, err := RegIncBeta(mid, a, b)
		if err != nil {
			return 0, err
		}
		if cdf < p {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// ScaledBeta is a Beta(Alpha, Beta) distribution stretched onto the support
// [0, Upper]. The paper's priors for the pfd of WS releases are exactly
// this shape: "a Beta(α, β) distribution defined in the range [0, 0.002]".
type ScaledBeta struct {
	Alpha, Beta float64
	Upper       float64
}

// Validate reports whether the parameters define a proper distribution.
func (s ScaledBeta) Validate() error {
	if s.Alpha <= 0 || s.Beta <= 0 || s.Upper <= 0 ||
		math.IsNaN(s.Alpha) || math.IsNaN(s.Beta) || math.IsNaN(s.Upper) {
		return fmt.Errorf("%w: ScaledBeta{%v %v %v}", ErrInvalidParam, s.Alpha, s.Beta, s.Upper)
	}
	return nil
}

// Mean returns the expected value Upper * α/(α+β).
func (s ScaledBeta) Mean() float64 {
	return s.Upper * s.Alpha / (s.Alpha + s.Beta)
}

// LogPDF returns the log density at x (−Inf outside the open support).
func (s ScaledBeta) LogPDF(x float64) float64 {
	if x <= 0 || x >= s.Upper {
		return math.Inf(-1)
	}
	u := x / s.Upper
	return (s.Alpha-1)*math.Log(u) + (s.Beta-1)*math.Log(1-u) -
		LogBeta(s.Alpha, s.Beta) - math.Log(s.Upper)
}

// CDF returns P(X <= x).
func (s ScaledBeta) CDF(x float64) (float64, error) {
	if x <= 0 {
		return 0, nil
	}
	if x >= s.Upper {
		return 1, nil
	}
	return RegIncBeta(x/s.Upper, s.Alpha, s.Beta)
}

// Quantile returns the value q with P(X <= q) = p.
func (s ScaledBeta) Quantile(p float64) (float64, error) {
	q, err := BetaQuantile(p, s.Alpha, s.Beta)
	if err != nil {
		return 0, err
	}
	return q * s.Upper, nil
}

// KahanSum accumulates float64 values with compensated (Kahan) summation,
// which the posterior normalization over large grids needs to stay exact.
// The zero value is an empty sum, ready to use.
type KahanSum struct {
	sum, c float64
}

// Add accumulates v.
func (k *KahanSum) Add(v float64) {
	y := v - k.c
	t := k.sum + y
	k.c = (t - k.sum) - y
	k.sum = t
}

// Sum returns the compensated total.
func (k *KahanSum) Sum() float64 { return k.sum }

// Grid1D is a discrete probability distribution over strictly increasing
// support points. Weights need not be normalized at construction.
type Grid1D struct {
	Xs []float64 // support points, strictly increasing
	Ws []float64 // non-negative weights, same length
}

// Normalize scales the weights to sum to 1. It is an error if the total
// mass is zero or not finite.
func (g *Grid1D) Normalize() error {
	if len(g.Xs) != len(g.Ws) || len(g.Xs) == 0 {
		return fmt.Errorf("%w: Grid1D with %d points and %d weights", ErrInvalidParam, len(g.Xs), len(g.Ws))
	}
	var k KahanSum
	for _, w := range g.Ws {
		if w < 0 || math.IsNaN(w) {
			return fmt.Errorf("%w: Grid1D has negative or NaN weight %v", ErrInvalidParam, w)
		}
		k.Add(w)
	}
	total := k.Sum()
	if total <= 0 || math.IsInf(total, 0) {
		return fmt.Errorf("%w: Grid1D total mass %v", ErrInvalidParam, total)
	}
	for i := range g.Ws {
		g.Ws[i] /= total
	}
	return nil
}

// CDF returns P(X <= x) for the (assumed normalized) grid.
func (g *Grid1D) CDF(x float64) float64 {
	var k KahanSum
	for i, xi := range g.Xs {
		if xi > x {
			break
		}
		k.Add(g.Ws[i])
	}
	return math.Min(1, k.Sum())
}

// Quantile returns the smallest support point q with CDF(q) >= p.
// If p exceeds the total mass it returns the last support point.
func (g *Grid1D) Quantile(p float64) float64 {
	var k KahanSum
	for i, w := range g.Ws {
		k.Add(w)
		if k.Sum() >= p {
			return g.Xs[i]
		}
	}
	return g.Xs[len(g.Xs)-1]
}

// Mean returns the expectation of the (assumed normalized) grid.
func (g *Grid1D) Mean() float64 {
	var k KahanSum
	for i, x := range g.Xs {
		k.Add(x * g.Ws[i])
	}
	return k.Sum()
}

// Summary accumulates count/mean/variance/min/max online (Welford).
// The zero value is an empty summary, ready to use.
type Summary struct {
	n          int
	mean, m2   float64
	min, max   float64
	hasExtrema bool
}

// Observe adds one value.
func (s *Summary) Observe(v float64) {
	s.n++
	delta := v - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (v - s.mean)
	if !s.hasExtrema || v < s.min {
		s.min = v
	}
	if !s.hasExtrema || v > s.max {
		s.max = v
	}
	s.hasExtrema = true
}

// Merge folds another summary into s, as if every observation of o had
// been observed by s (Chan et al.'s parallel variance combination). The
// monitor restores a journaled campaign's latency summary with it, and
// loadgen pools its workers' summaries.
func (s *Summary) Merge(o Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = o
		return
	}
	n := s.n + o.n
	delta := o.mean - s.mean
	s.m2 += o.m2 + delta*delta*float64(s.n)*float64(o.n)/float64(n)
	s.mean += delta * float64(o.n) / float64(n)
	s.n = n
	if o.min < s.min {
		s.min = o.min
	}
	if o.max > s.max {
		s.max = o.max
	}
}

// SummaryState is the exported form of a Summary for serialization
// (the campaign journal snapshots per-release latency summaries with
// it). The fields are exactly Welford's accumulator state, so
// State → RestoreSummary round-trips losslessly.
type SummaryState struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

// State exports the accumulator state for serialization.
func (s *Summary) State() SummaryState {
	return SummaryState{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max}
}

// RestoreSummary rebuilds a Summary from exported state. Invalid state
// (negative count, negative squared-deviation mass, non-finite moments,
// inverted extrema) is rejected rather than silently accepted, because
// the journal replaying it may have been corrupted on disk.
func RestoreSummary(st SummaryState) (Summary, error) {
	if st.N < 0 || st.M2 < 0 ||
		math.IsNaN(st.Mean) || math.IsInf(st.Mean, 0) ||
		math.IsNaN(st.M2) || math.IsInf(st.M2, 0) ||
		math.IsNaN(st.Min) || math.IsNaN(st.Max) {
		return Summary{}, fmt.Errorf("%w: RestoreSummary%+v", ErrInvalidParam, st)
	}
	if st.N == 0 {
		return Summary{}, nil
	}
	if st.Min > st.Max {
		return Summary{}, fmt.Errorf("%w: RestoreSummary min %v > max %v", ErrInvalidParam, st.Min, st.Max)
	}
	return Summary{n: st.N, mean: st.Mean, m2: st.M2, min: st.Min, max: st.Max, hasExtrema: true}, nil
}

// N returns the number of observations.
func (s *Summary) N() int { return s.n }

// Mean returns the running mean (0 for an empty summary).
func (s *Summary) Mean() float64 { return s.mean }

// Variance returns the population variance (0 for fewer than 2 samples).
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n)
}

// Min returns the smallest observation (0 for an empty summary).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty summary).
func (s *Summary) Max() float64 { return s.max }

// Quantiles computes the requested quantiles (each in [0,1]) of the sample
// by sorting a copy; it uses the nearest-rank definition.
func Quantiles(sample []float64, ps ...float64) ([]float64, error) {
	if len(sample) == 0 {
		return nil, fmt.Errorf("%w: Quantiles of empty sample", ErrInvalidParam)
	}
	sorted := append([]float64(nil), sample...)
	sort.Float64s(sorted)
	out := make([]float64, len(ps))
	for i, p := range ps {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("%w: quantile p=%v", ErrInvalidParam, p)
		}
		idx := int(math.Ceil(p*float64(len(sorted)))) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		out[i] = sorted[idx]
	}
	return out, nil
}

// Histogram counts observations into equal-width bins over [Lo, Hi).
// Observations outside the range are clamped into the edge bins so that
// totals always balance.
type Histogram struct {
	Lo, Hi float64
	Counts []int
}

// NewHistogram builds a histogram with n bins over [lo, hi).
func NewHistogram(lo, hi float64, n int) (*Histogram, error) {
	if !(hi > lo) || n <= 0 {
		return nil, fmt.Errorf("%w: NewHistogram(%v, %v, %d)", ErrInvalidParam, lo, hi, n)
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int, n)}, nil
}

// Observe adds one value.
func (h *Histogram) Observe(v float64) {
	n := len(h.Counts)
	idx := int(float64(n) * (v - h.Lo) / (h.Hi - h.Lo))
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	h.Counts[idx]++
}

// Merge adds another histogram's counts into h. The histograms must have
// identical bounds and bin counts.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil {
		return nil
	}
	if h.Lo != o.Lo || h.Hi != o.Hi || len(h.Counts) != len(o.Counts) {
		return fmt.Errorf("%w: merging histograms [%v,%v)x%d and [%v,%v)x%d",
			ErrInvalidParam, h.Lo, h.Hi, len(h.Counts), o.Lo, o.Hi, len(o.Counts))
	}
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	return nil
}

// Total returns the number of observations recorded.
func (h *Histogram) Total() int {
	t := 0
	for _, c := range h.Counts {
		t += c
	}
	return t
}

// Quantile estimates the p-quantile (p in [0,1]) of the binned sample,
// interpolating linearly within the containing bin (observations are
// assumed uniform inside a bin). An empty histogram returns Lo. Values
// clamped into the edge bins report the bin edge, so a quantile is never
// outside [Lo, Hi]. The load harness derives its latency percentiles
// from merged per-worker histograms with this.
func (h *Histogram) Quantile(p float64) float64 {
	total := h.Total()
	if total == 0 {
		return h.Lo
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	target := p * float64(total)
	cum := 0.0
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			within := 0.0
			if target > cum {
				within = (target - cum) / float64(c)
			}
			return h.Lo + width*(float64(i)+within)
		}
		cum = next
	}
	return h.Hi
}
