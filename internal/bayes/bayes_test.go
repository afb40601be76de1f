package bayes

import (
	"math"
	"testing"
	"testing/quick"

	"wsupgrade/internal/stats"
	"wsupgrade/internal/xrand"
)

func scenario1Priors() (a, b stats.ScaledBeta) {
	return stats.ScaledBeta{Alpha: 20, Beta: 20, Upper: 0.002},
		stats.ScaledBeta{Alpha: 2, Beta: 3, Upper: 0.002}
}

func smallWhiteBox(t testing.TB) *WhiteBox {
	t.Helper()
	pa, pb := scenario1Priors()
	w, err := NewWhiteBox(WhiteBoxConfig{PriorA: pa, PriorB: pb, GridA: 40, GridB: 40, GridC: 16, GridAB: 64})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestOutcomeMapping(t *testing.T) {
	cases := []struct {
		a, b bool
		want JointOutcome
	}{
		{true, true, BothFail},
		{true, false, AOnlyFails},
		{false, true, BOnlyFails},
		{false, false, NeitherFails},
	}
	for _, c := range cases {
		if got := Outcome(c.a, c.b); got != c.want {
			t.Errorf("Outcome(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestJointCountsAccounting(t *testing.T) {
	var c JointCounts
	seq := []JointOutcome{BothFail, AOnlyFails, BOnlyFails, NeitherFails, NeitherFails, BothFail}
	for _, o := range seq {
		c.Add(o)
	}
	if c.N != 6 || c.Both != 2 || c.AOnly != 1 || c.BOnly != 1 || c.Neither() != 2 {
		t.Fatalf("counts = %+v (neither %d)", c, c.Neither())
	}
	if c.AFailures() != 3 || c.BFailures() != 3 {
		t.Fatalf("per-release failures = %d/%d, want 3/3", c.AFailures(), c.BFailures())
	}
	if !c.Valid() {
		t.Fatal("consistent counts reported invalid")
	}
	bad := JointCounts{N: 1, Both: 2}
	if bad.Valid() {
		t.Fatal("inconsistent counts reported valid")
	}
}

func TestJointOutcomeString(t *testing.T) {
	for o, want := range map[JointOutcome]string{
		BothFail:        "both-fail",
		AOnlyFails:      "a-only-fails",
		BOnlyFails:      "b-only-fails",
		NeitherFails:    "neither-fails",
		JointOutcome(9): "JointOutcome(9)",
	} {
		if got := o.String(); got != want {
			t.Errorf("String(%d) = %q, want %q", int(o), got, want)
		}
	}
}

func TestPerfectDetectorIdentity(t *testing.T) {
	d := PerfectDetector{}
	if err := quick.Check(func(a, b bool) bool {
		ra, rb := d.Detect(a, b)
		return ra == a && rb == b
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOmissionDetectorRates(t *testing.T) {
	rng := xrand.New(5)
	d, err := NewOmissionDetector(0.15, rng)
	if err != nil {
		t.Fatal(err)
	}
	const n = 100000
	missedA := 0
	for i := 0; i < n; i++ {
		ra, rb := d.Detect(true, false)
		if rb {
			t.Fatal("omission detector invented a failure")
		}
		if !ra {
			missedA++
		}
	}
	rate := float64(missedA) / n
	if math.Abs(rate-0.15) > 0.01 {
		t.Fatalf("omission rate = %v, want ~0.15", rate)
	}
	// Successes are never turned into failures.
	ra, rb := d.Detect(false, false)
	if ra || rb {
		t.Fatal("omission detector flagged a success as failure")
	}
}

func TestOmissionDetectorValidation(t *testing.T) {
	if _, err := NewOmissionDetector(-0.1, xrand.New(1)); err == nil {
		t.Fatal("negative pomit accepted")
	}
	if _, err := NewOmissionDetector(1.5, xrand.New(1)); err == nil {
		t.Fatal("pomit > 1 accepted")
	}
	if _, err := NewOmissionDetector(0.5, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestBackToBackDetector(t *testing.T) {
	d := BackToBackDetector{}
	// Coincident failures recorded as joint success (pessimistic model).
	ra, rb := d.Detect(true, true)
	if ra || rb {
		t.Fatal("coincident failure not masked")
	}
	// Discordant demands recorded truthfully.
	ra, rb = d.Detect(true, false)
	if !ra || rb {
		t.Fatal("discordant demand distorted")
	}
	ra, rb = d.Detect(false, true)
	if ra || !rb {
		t.Fatal("discordant demand distorted")
	}
	ra, rb = d.Detect(false, false)
	if ra || rb {
		t.Fatal("joint success distorted")
	}
}

func TestBlackBoxPosteriorSharpensWithEvidence(t *testing.T) {
	prior, _ := scenario1Priors()
	bb, err := NewBlackBox(prior, 400)
	if err != nil {
		t.Fatal(err)
	}
	// With no data the posterior equals the prior.
	post0, err := bb.Posterior(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := post0.Mean(), prior.Mean(); math.Abs(got-want) > 1e-5 {
		t.Fatalf("posterior(0,0) mean %v, want prior mean %v", got, want)
	}
	// Failure-free operation shifts mass down.
	postClean, err := bb.Posterior(20000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if postClean.Mean() >= post0.Mean() {
		t.Fatalf("failure-free evidence did not reduce pfd estimate: %v >= %v",
			postClean.Mean(), post0.Mean())
	}
	// Heavy failures shift mass up.
	postDirty, err := bb.Posterior(20000, 40)
	if err != nil {
		t.Fatal(err)
	}
	if postDirty.Mean() <= post0.Mean() {
		t.Fatalf("failure evidence did not raise pfd estimate: %v <= %v",
			postDirty.Mean(), post0.Mean())
	}
}

func TestBlackBoxPosteriorConcentratesAtTruth(t *testing.T) {
	prior := stats.ScaledBeta{Alpha: 2, Beta: 3, Upper: 0.01}
	bb, err := NewBlackBox(prior, 500)
	if err != nil {
		t.Fatal(err)
	}
	const truth = 2e-3
	post, err := bb.Posterior(200000, int(200000*truth))
	if err != nil {
		t.Fatal(err)
	}
	if got := post.Mean(); math.Abs(got-truth) > 2e-4 {
		t.Fatalf("posterior mean %v far from truth %v", got, truth)
	}
	lo := post.Quantile(0.005)
	hi := post.Quantile(0.995)
	if truth < lo || truth > hi {
		t.Fatalf("99%% credible interval [%v, %v] excludes truth %v", lo, hi, truth)
	}
}

func TestBlackBoxValidation(t *testing.T) {
	prior, _ := scenario1Priors()
	if _, err := NewBlackBox(stats.ScaledBeta{}, 100); err == nil {
		t.Fatal("invalid prior accepted")
	}
	if _, err := NewBlackBox(prior, 1); err == nil {
		t.Fatal("grid of 1 accepted")
	}
	bb, err := NewBlackBox(prior, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ n, r int }{{-1, 0}, {0, -1}, {3, 4}} {
		if _, err := bb.Posterior(c.n, c.r); err == nil {
			t.Errorf("Posterior(%d,%d) accepted", c.n, c.r)
		}
	}
}

func TestWhiteBoxConfigValidation(t *testing.T) {
	pa, pb := scenario1Priors()
	if _, err := NewWhiteBox(WhiteBoxConfig{PriorA: stats.ScaledBeta{}, PriorB: pb}); err == nil {
		t.Fatal("invalid prior A accepted")
	}
	if _, err := NewWhiteBox(WhiteBoxConfig{PriorA: pa, PriorB: stats.ScaledBeta{}}); err == nil {
		t.Fatal("invalid prior B accepted")
	}
	if _, err := NewWhiteBox(WhiteBoxConfig{
		PriorA: stats.ScaledBeta{Alpha: 1, Beta: 1, Upper: 0.6},
		PriorB: stats.ScaledBeta{Alpha: 1, Beta: 1, Upper: 0.6},
	}); err == nil {
		t.Fatal("supports summing above 1 accepted")
	}
	if _, err := NewWhiteBox(WhiteBoxConfig{PriorA: pa, PriorB: pb, GridA: 1}); err == nil {
		t.Fatal("degenerate grid accepted")
	}
}

func TestWhiteBoxPriorMatchesMarginals(t *testing.T) {
	w := smallWhiteBox(t)
	post, err := w.Posterior(JointCounts{})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := scenario1Priors()
	// With no observations the marginal posterior of P_A is the prior.
	if got, want := post.A.Mean(), pa.Mean(); math.Abs(got-want) > 1e-5 {
		t.Fatalf("prior-marginal A mean = %v, want %v", got, want)
	}
	if got, want := post.B.Mean(), pb.Mean(); math.Abs(got-want) > 1e-5 {
		t.Fatalf("prior-marginal B mean = %v, want %v", got, want)
	}
	// The indifference prior puts E[P_AB | P_A, P_B] = min(P_A,P_B)/2,
	// so the prior mean of P_AB must be below both marginal means.
	if ab := post.AB.Mean(); ab <= 0 || ab >= math.Min(post.A.Mean(), post.B.Mean()) {
		t.Fatalf("prior P_AB mean %v outside (0, min(A,B))", ab)
	}
}

func TestWhiteBoxMarginalsNormalized(t *testing.T) {
	w := smallWhiteBox(t)
	for _, c := range []JointCounts{
		{},
		{N: 1000, Both: 1, AOnly: 2, BOnly: 1},
		{N: 50000, Both: 15, AOnly: 35, BOnly: 25},
	} {
		post, err := w.Posterior(c)
		if err != nil {
			t.Fatal(err)
		}
		for name, g := range map[string]*stats.Grid1D{"A": post.A, "B": post.B, "AB": post.AB} {
			sum := 0.0
			for _, v := range g.Ws {
				if v < 0 {
					t.Fatalf("%s marginal has negative mass", name)
				}
				sum += v
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("%s marginal mass = %v for %+v", name, sum, c)
			}
		}
	}
}

func TestWhiteBoxRejectsBadCounts(t *testing.T) {
	w := smallWhiteBox(t)
	if _, err := w.Posterior(JointCounts{N: 1, Both: 5}); err == nil {
		t.Fatal("inconsistent counts accepted")
	}
}

func TestWhiteBoxEvidenceMovesMarginals(t *testing.T) {
	w := smallWhiteBox(t)
	clean, err := w.Posterior(JointCounts{N: 30000})
	if err != nil {
		t.Fatal(err)
	}
	prior, err := w.Posterior(JointCounts{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.B.Mean() >= prior.B.Mean() {
		t.Fatal("failure-free demands did not improve confidence in B")
	}
	// Observing B-only failures must push B's pfd estimate above A's shift.
	bBad, err := w.Posterior(JointCounts{N: 30000, BOnly: 60})
	if err != nil {
		t.Fatal(err)
	}
	if bBad.B.Mean() <= clean.B.Mean() {
		t.Fatal("B failures did not raise B's pfd estimate")
	}
	if bBad.A.Mean() >= bBad.B.Mean() {
		t.Fatalf("A mean %v should stay below B mean %v when only B fails",
			bBad.A.Mean(), bBad.B.Mean())
	}
}

func TestWhiteBoxCoincidentFailuresRaisePAB(t *testing.T) {
	w := smallWhiteBox(t)
	separate, err := w.Posterior(JointCounts{N: 20000, AOnly: 20, BOnly: 16})
	if err != nil {
		t.Fatal(err)
	}
	coincident, err := w.Posterior(JointCounts{N: 20000, Both: 16, AOnly: 4})
	if err != nil {
		t.Fatal(err)
	}
	if coincident.AB.Mean() <= separate.AB.Mean() {
		t.Fatalf("coincident evidence P_AB mean %v not above separate-failure %v",
			coincident.AB.Mean(), separate.AB.Mean())
	}
}

func TestWhiteBoxConfidenceMonotoneInTarget(t *testing.T) {
	w := smallWhiteBox(t)
	post, err := w.Posterior(JointCounts{N: 10000, Both: 2, AOnly: 6, BOnly: 4})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for target := 0.0; target <= 0.002; target += 0.0001 {
		c := post.ConfidenceB(target)
		if c < prev-1e-12 {
			t.Fatalf("ConfidenceB not monotone at %v", target)
		}
		if c < 0 || c > 1+1e-12 {
			t.Fatalf("ConfidenceB out of range: %v", c)
		}
		prev = c
	}
	if got := post.ConfidenceB(0.002); math.Abs(got-1) > 1e-9 {
		t.Fatalf("ConfidenceB at support end = %v, want 1", got)
	}
}

func TestWhiteBoxPercentileInvertsConfidence(t *testing.T) {
	w := smallWhiteBox(t)
	post, err := w.Posterior(JointCounts{N: 25000, Both: 5, AOnly: 20, BOnly: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, conf := range []float64{0.5, 0.9, 0.99} {
		tq := post.PercentileB(conf)
		if got := post.ConfidenceB(tq); got < conf {
			t.Fatalf("ConfidenceB(PercentileB(%v)) = %v < %v", conf, got, conf)
		}
	}
	// Percentiles are monotone in the confidence level.
	if post.PercentileB(0.5) > post.PercentileB(0.99) {
		t.Fatal("percentiles not monotone")
	}
	// Same for A.
	if post.PercentileA(0.5) > post.PercentileA(0.99) {
		t.Fatal("A percentiles not monotone")
	}
	if got := post.ConfidenceA(post.PercentileA(0.9)); got < 0.9 {
		t.Fatalf("A percentile/confidence inversion broken: %v", got)
	}
	_ = post.ConfidenceAB(post.AB.Quantile(0.9))
}

// The inference must recover ground truth: with many observations drawn
// from known (P_A, P_B), the posterior credible intervals cover the truth.
func TestWhiteBoxRecoversGroundTruth(t *testing.T) {
	pa := stats.ScaledBeta{Alpha: 2, Beta: 2, Upper: 0.004}
	pb := stats.ScaledBeta{Alpha: 2, Beta: 2, Upper: 0.004}
	w, err := NewWhiteBox(WhiteBoxConfig{PriorA: pa, PriorB: pb, GridA: 60, GridB: 60, GridC: 20, GridAB: 100})
	if err != nil {
		t.Fatal(err)
	}
	const (
		truthA  = 2.0e-3
		truthB  = 1.0e-3
		demands = 400000
	)
	rng := xrand.New(77)
	var c JointCounts
	for i := 0; i < demands; i++ {
		aF := rng.Bool(truthA)
		bF := rng.Bool(truthB) // independent failures
		c.Add(Outcome(aF, bF))
	}
	post, err := w.Posterior(c)
	if err != nil {
		t.Fatal(err)
	}
	if loA, hiA := post.A.Quantile(0.005), post.A.Quantile(0.995); truthA < loA || truthA > hiA {
		t.Fatalf("A interval [%v,%v] excludes truth %v", loA, hiA, truthA)
	}
	if loB, hiB := post.B.Quantile(0.005), post.B.Quantile(0.995); truthB < loB || truthB > hiB {
		t.Fatalf("B interval [%v,%v] excludes truth %v", loB, hiB, truthB)
	}
	if math.Abs(post.A.Mean()-truthA) > 3e-4 {
		t.Fatalf("A mean %v far from truth %v", post.A.Mean(), truthA)
	}
	if math.Abs(post.B.Mean()-truthB) > 3e-4 {
		t.Fatalf("B mean %v far from truth %v", post.B.Mean(), truthB)
	}
}

func TestCriterion1DerivesPriorTarget(t *testing.T) {
	pa, _ := scenario1Priors()
	c1, err := NewCriterion1(pa, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pa.Quantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c1.Target-want) > 1e-12 {
		t.Fatalf("criterion 1 target %v, want prior percentile %v", c1.Target, want)
	}
	if _, err := NewCriterion1(pa, 0); err == nil {
		t.Fatal("confidence 0 accepted")
	}
	if _, err := NewCriterion1(pa, 1); err == nil {
		t.Fatal("confidence 1 accepted")
	}
}

func TestCriteriaSemantics(t *testing.T) {
	w := smallWhiteBox(t)
	pa, _ := scenario1Priors()

	// A clean run should eventually satisfy all three criteria.
	clean, err := w.Posterior(JointCounts{N: 40000})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := NewCriterion1(pa, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	c2 := Criterion2{Confidence: 0.99, Target: 1e-3}
	c3 := Criterion3{Confidence: 0.99}
	for _, cr := range []Criterion{c1, c2, c3} {
		if !cr.Satisfied(clean) {
			t.Errorf("%#v unsatisfied after 40k clean demands", cr)
		}
	}

	// A run where B fails constantly must satisfy none.
	dirty, err := w.Posterior(JointCounts{N: 40000, BOnly: 80})
	if err != nil {
		t.Fatal(err)
	}
	for _, cr := range []Criterion{c1, c2, c3} {
		if cr.Satisfied(dirty) {
			t.Errorf("%#v satisfied although B fails at 2e-3", cr)
		}
	}
}

// Criterion 3 compares the evolving percentiles: when A turns out worse
// than its prior and B never fails, C3 must trigger quickly.
func TestCriterion3TracksRelativeQuality(t *testing.T) {
	pa := stats.ScaledBeta{Alpha: 1, Beta: 10, Upper: 0.01}
	pb := stats.ScaledBeta{Alpha: 2, Beta: 3, Upper: 0.01}
	w, err := NewWhiteBox(WhiteBoxConfig{PriorA: pa, PriorB: pb, GridA: 50, GridB: 50, GridC: 16, GridAB: 64})
	if err != nil {
		t.Fatal(err)
	}
	c3 := Criterion3{Confidence: 0.99}
	// A fails a lot, B never: 25 A-only failures in 5000 demands.
	post, err := w.Posterior(JointCounts{N: 5000, AOnly: 25})
	if err != nil {
		t.Fatal(err)
	}
	if !c3.Satisfied(post) {
		t.Fatalf("criterion 3 unsatisfied: TB99=%v TA99=%v",
			post.PercentileB(0.99), post.PercentileA(0.99))
	}
}

func BenchmarkWhiteBoxPosterior(b *testing.B) {
	pa, pb := scenario1Priors()
	w, err := NewWhiteBox(WhiteBoxConfig{PriorA: pa, PriorB: pb})
	if err != nil {
		b.Fatal(err)
	}
	c := JointCounts{N: 50000, Both: 15, AOnly: 35, BOnly: 25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Posterior(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlackBoxPosterior(b *testing.B) {
	prior, _ := scenario1Priors()
	bb, err := NewBlackBox(prior, 400)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bb.Posterior(50000, 50); err != nil {
			b.Fatal(err)
		}
	}
}
