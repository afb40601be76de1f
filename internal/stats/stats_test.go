package stats

import (
	"math"
	"testing"
	"testing/quick"

	"wsupgrade/internal/xrand"
)

func TestLogGammaKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, 0},
		{2, 0},
		{3, math.Log(2)},
		{4, math.Log(6)},
		{5, math.Log(24)},
		{0.5, math.Log(math.Sqrt(math.Pi))},
	}
	for _, c := range cases {
		if got := LogGamma(c.x); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("LogGamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestLogBetaSymmetry(t *testing.T) {
	if err := quick.Check(func(a, b uint8) bool {
		x := float64(a)/16 + 0.1
		y := float64(b)/16 + 0.1
		return math.Abs(LogBeta(x, y)-LogBeta(y, x)) < 1e-12
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRegIncBetaKnownValues(t *testing.T) {
	cases := []struct{ x, a, b, want float64 }{
		{0.5, 1, 1, 0.5},      // uniform CDF
		{0.25, 1, 1, 0.25},    // uniform CDF
		{0.5, 2, 2, 0.5},      // symmetric
		{0.5, 20, 20, 0.5},    // symmetric, high concentration
		{0.3, 1, 2, 1 - 0.49}, // I_x(1,2) = 1-(1-x)^2
		{0.3, 2, 1, 0.09},     // I_x(2,1) = x^2
		{0.2, 1, 10, 1 - math.Pow(0.8, 10)},
	}
	for _, c := range cases {
		got, err := RegIncBeta(c.x, c.a, c.b)
		if err != nil {
			t.Fatalf("RegIncBeta(%v,%v,%v): %v", c.x, c.a, c.b, err)
		}
		if math.Abs(got-c.want) > 1e-10 {
			t.Errorf("RegIncBeta(%v,%v,%v) = %v, want %v", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestRegIncBetaEdges(t *testing.T) {
	for _, x := range []float64{-1, 0} {
		got, err := RegIncBeta(x, 2, 3)
		if err != nil || got != 0 {
			t.Fatalf("RegIncBeta(%v) = %v, %v; want 0, nil", x, got, err)
		}
	}
	for _, x := range []float64{1, 2} {
		got, err := RegIncBeta(x, 2, 3)
		if err != nil || got != 1 {
			t.Fatalf("RegIncBeta(%v) = %v, %v; want 1, nil", x, got, err)
		}
	}
	if _, err := RegIncBeta(0.5, 0, 1); err == nil {
		t.Fatal("RegIncBeta with a=0 did not error")
	}
}

func TestRegIncBetaMonotone(t *testing.T) {
	prev := -1.0
	for x := 0.0; x <= 1.0; x += 0.01 {
		v, err := RegIncBeta(x, 2.5, 7.5)
		if err != nil {
			t.Fatal(err)
		}
		if v < prev-1e-12 {
			t.Fatalf("CDF not monotone at x=%v: %v < %v", x, v, prev)
		}
		prev = v
	}
}

func TestBetaQuantileInvertsCDF(t *testing.T) {
	for _, c := range []struct{ a, b float64 }{{2, 3}, {20, 20}, {1, 10}} {
		for _, p := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
			q, err := BetaQuantile(p, c.a, c.b)
			if err != nil {
				t.Fatal(err)
			}
			back, err := RegIncBeta(q, c.a, c.b)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(back-p) > 1e-9 {
				t.Errorf("quantile roundtrip Beta(%v,%v) p=%v: got %v", c.a, c.b, p, back)
			}
		}
	}
}

func TestBetaQuantileRejectsBadP(t *testing.T) {
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if _, err := BetaQuantile(p, 2, 3); err == nil {
			t.Errorf("BetaQuantile(p=%v) did not error", p)
		}
	}
}

func TestScaledBetaMeanAndCDF(t *testing.T) {
	s := ScaledBeta{Alpha: 20, Beta: 20, Upper: 0.002}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Mean(); math.Abs(got-0.001) > 1e-15 {
		t.Fatalf("mean = %v, want 0.001", got)
	}
	c, err := s.CDF(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c-0.5) > 1e-10 {
		t.Fatalf("CDF at mean of symmetric scaled Beta = %v, want 0.5", c)
	}
	if c, _ := s.CDF(-1); c != 0 {
		t.Fatalf("CDF below support = %v, want 0", c)
	}
	if c, _ := s.CDF(1); c != 1 {
		t.Fatalf("CDF above support = %v, want 1", c)
	}
}

func TestScaledBetaQuantileRoundtrip(t *testing.T) {
	s := ScaledBeta{Alpha: 2, Beta: 3, Upper: 0.002}
	for _, p := range []float64{0.05, 0.5, 0.99} {
		q, err := s.Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		if q < 0 || q > s.Upper {
			t.Fatalf("quantile %v outside support", q)
		}
		back, err := s.CDF(q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(back-p) > 1e-8 {
			t.Fatalf("roundtrip p=%v got %v", p, back)
		}
	}
}

func TestScaledBetaValidate(t *testing.T) {
	bad := []ScaledBeta{
		{Alpha: 0, Beta: 1, Upper: 1},
		{Alpha: 1, Beta: -1, Upper: 1},
		{Alpha: 1, Beta: 1, Upper: 0},
		{Alpha: math.NaN(), Beta: 1, Upper: 1},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", s)
		}
	}
}

func TestScaledBetaLogPDFIntegratesToOne(t *testing.T) {
	s := ScaledBeta{Alpha: 2, Beta: 3, Upper: 0.002}
	const n = 20000
	var k KahanSum
	h := s.Upper / n
	for i := 0; i < n; i++ {
		x := (float64(i) + 0.5) * h
		k.Add(math.Exp(s.LogPDF(x)) * h)
	}
	if math.Abs(k.Sum()-1) > 1e-6 {
		t.Fatalf("pdf integrates to %v, want 1", k.Sum())
	}
}

func TestKahanSumBeatsNaive(t *testing.T) {
	var k KahanSum
	k.Add(1e16)
	for i := 0; i < 10000; i++ {
		k.Add(1.0)
	}
	k.Add(-1e16)
	if got := k.Sum(); got != 10000 {
		t.Fatalf("Kahan sum = %v, want 10000", got)
	}
}

func TestGrid1D(t *testing.T) {
	g := &Grid1D{Xs: []float64{1, 2, 3, 4}, Ws: []float64{1, 1, 1, 1}}
	if err := g.Normalize(); err != nil {
		t.Fatal(err)
	}
	if got := g.CDF(2.5); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("CDF(2.5) = %v, want 0.5", got)
	}
	if got := g.Quantile(0.5); got != 2 {
		t.Fatalf("Quantile(0.5) = %v, want 2", got)
	}
	if got := g.Quantile(1.0); got != 4 {
		t.Fatalf("Quantile(1.0) = %v, want 4", got)
	}
	if got := g.Mean(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestGrid1DNormalizeErrors(t *testing.T) {
	cases := []*Grid1D{
		{},
		{Xs: []float64{1}, Ws: []float64{}},
		{Xs: []float64{1}, Ws: []float64{-1}},
		{Xs: []float64{1}, Ws: []float64{0}},
		{Xs: []float64{1}, Ws: []float64{math.NaN()}},
	}
	for i, g := range cases {
		if err := g.Normalize(); err == nil {
			t.Errorf("case %d: Normalize did not error", i)
		}
	}
}

func TestGrid1DCDFMonotoneProperty(t *testing.T) {
	r := xrand.New(99)
	for trial := 0; trial < 50; trial++ {
		n := 2 + r.Intn(30)
		g := &Grid1D{Xs: make([]float64, n), Ws: make([]float64, n)}
		x := 0.0
		for i := 0; i < n; i++ {
			x += r.Float64() + 1e-9
			g.Xs[i] = x
			g.Ws[i] = r.Float64()
		}
		g.Ws[0] += 1e-9 // ensure positive mass
		if err := g.Normalize(); err != nil {
			t.Fatal(err)
		}
		prev := -1.0
		for q := 0.0; q <= x+1; q += x / 40 {
			c := g.CDF(q)
			if c < prev-1e-12 || c < 0 || c > 1+1e-12 {
				t.Fatalf("CDF violates monotonicity/bounds: %v after %v", c, prev)
			}
			prev = c
		}
	}
}

func TestSummary(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if math.Abs(s.Mean()-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", s.Mean())
	}
	if math.Abs(s.Variance()-4) > 1e-12 {
		t.Fatalf("variance = %v, want 4", s.Variance())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %v/%v", s.Min(), s.Max())
	}
}

func TestSummaryEmptyAndSingle(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.N() != 0 {
		t.Fatal("empty summary not zero")
	}
	s.Observe(3)
	if s.Variance() != 0 {
		t.Fatal("single-sample variance not zero")
	}
	if s.Min() != 3 || s.Max() != 3 {
		t.Fatal("single-sample extrema wrong")
	}
}

func TestQuantiles(t *testing.T) {
	sample := []float64{5, 1, 4, 2, 3}
	qs, err := Quantiles(sample, 0.2, 0.5, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 3, 5}
	for i := range qs {
		if qs[i] != want[i] {
			t.Fatalf("quantiles = %v, want %v", qs, want)
		}
	}
	// Input must not be mutated.
	if sample[0] != 5 {
		t.Fatal("Quantiles mutated its input")
	}
	if _, err := Quantiles(nil, 0.5); err == nil {
		t.Fatal("Quantiles(empty) did not error")
	}
	if _, err := Quantiles(sample, 1.5); err == nil {
		t.Fatal("Quantiles(p=1.5) did not error")
	}
}

func TestHistogram(t *testing.T) {
	h, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{-1, 0, 1.9, 2, 9.9, 10, 100} {
		h.Observe(v)
	}
	if h.Total() != 7 {
		t.Fatalf("total = %d, want 7", h.Total())
	}
	if h.Counts[0] != 3 { // -1, 0, 1.9
		t.Fatalf("bin 0 = %d, want 3", h.Counts[0])
	}
	if h.Counts[4] != 3 { // 9.9 plus clamped 10, 100
		t.Fatalf("bin 4 = %d, want 3", h.Counts[4])
	}
	if _, err := NewHistogram(1, 1, 5); err == nil {
		t.Fatal("NewHistogram with empty range did not error")
	}
	if _, err := NewHistogram(0, 1, 0); err == nil {
		t.Fatal("NewHistogram with zero bins did not error")
	}
}

// Property: empirical Beta sample quantiles agree with analytic quantiles.
func TestBetaQuantileAgreesWithSampling(t *testing.T) {
	r := xrand.New(123)
	const n = 100000
	sample := make([]float64, n)
	for i := range sample {
		sample[i] = r.Beta(2, 3)
	}
	for _, p := range []float64{0.1, 0.5, 0.9} {
		analytic, err := BetaQuantile(p, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		empirical, err := Quantiles(sample, p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(analytic-empirical[0]) > 0.01 {
			t.Errorf("p=%v: analytic %v vs empirical %v", p, analytic, empirical[0])
		}
	}
}

func BenchmarkRegIncBeta(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		v, _ := RegIncBeta(0.3, 20, 20)
		sink += v
	}
	_ = sink
}

// Summary.Merge must agree with sequential observation regardless of how
// the sample is partitioned — the contract a restored campaign and
// loadgen's pooled workers rely on.
func TestSummaryMergePartitionInvariant(t *testing.T) {
	r := xrand.New(7)
	sample := make([]float64, 500)
	for i := range sample {
		sample[i] = r.Exp(2.0)
	}
	var sequential Summary
	for _, v := range sample {
		sequential.Observe(v)
	}
	for _, parts := range []int{1, 2, 3, 7, 16, 500} {
		shards := make([]Summary, parts)
		for i, v := range sample {
			shards[i%parts].Observe(v)
		}
		var merged Summary
		for _, sh := range shards {
			merged.Merge(sh)
		}
		if merged.N() != sequential.N() {
			t.Fatalf("parts=%d: N = %d, want %d", parts, merged.N(), sequential.N())
		}
		if math.Abs(merged.Mean()-sequential.Mean()) > 1e-12*math.Max(1, sequential.Mean()) {
			t.Fatalf("parts=%d: mean %v, want %v", parts, merged.Mean(), sequential.Mean())
		}
		if math.Abs(merged.Variance()-sequential.Variance()) > 1e-9*math.Max(1, sequential.Variance()) {
			t.Fatalf("parts=%d: variance %v, want %v", parts, merged.Variance(), sequential.Variance())
		}
		if merged.Min() != sequential.Min() || merged.Max() != sequential.Max() {
			t.Fatalf("parts=%d: extrema (%v, %v), want (%v, %v)",
				parts, merged.Min(), merged.Max(), sequential.Min(), sequential.Max())
		}
	}
	// Merging into an empty summary adopts the other side wholesale.
	var empty Summary
	empty.Merge(sequential)
	if empty.N() != sequential.N() || empty.Mean() != sequential.Mean() {
		t.Fatal("merge into empty summary lost state")
	}
	// Merging an empty summary is a no-op.
	before := sequential
	sequential.Merge(Summary{})
	if sequential != before {
		t.Fatal("merging an empty summary changed state")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewHistogram(0, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	a.Observe(1)
	a.Observe(9)
	b.Observe(1)
	b.Observe(5)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Total() != 4 || a.Counts[0] != 2 || a.Counts[2] != 1 || a.Counts[4] != 1 {
		t.Fatalf("merged counts = %v", a.Counts)
	}
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
	mismatched, err := NewHistogram(0, 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(mismatched); err == nil {
		t.Fatal("mismatched bin counts accepted")
	}
}

func TestHistogramQuantile(t *testing.T) {
	h, err := NewHistogram(0, 100, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram quantile = %v, want Lo", got)
	}
	// A uniform sample 0.5, 1.5, ..., 99.5: one observation per bin.
	for i := 0; i < 100; i++ {
		h.Observe(float64(i) + 0.5)
	}
	for _, tc := range []struct{ p, want, tol float64 }{
		{0, 0, 0.01},
		{0.5, 50, 1.01},
		{0.95, 95, 1.01},
		{0.99, 99, 1.01},
		{1, 100, 0.01},
	} {
		if got := h.Quantile(tc.p); math.Abs(got-tc.want) > tc.tol {
			t.Fatalf("Quantile(%v) = %v, want %v ± %v", tc.p, got, tc.want, tc.tol)
		}
	}
	// Out-of-range p clamps.
	if got := h.Quantile(-1); got != h.Quantile(0) {
		t.Fatalf("Quantile(-1) = %v", got)
	}
	if got := h.Quantile(2); got != h.Quantile(1) {
		t.Fatalf("Quantile(2) = %v", got)
	}

	// A point mass in one bin: every quantile lands inside that bin.
	pm, err := NewHistogram(0, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		pm.Observe(7.3)
	}
	for _, p := range []float64{0.01, 0.5, 0.99} {
		if got := pm.Quantile(p); got < 7 || got > 8 {
			t.Fatalf("point-mass Quantile(%v) = %v, want within [7,8]", p, got)
		}
	}

	// Quantiles of merged histograms match the union sample's quantiles.
	a, _ := NewHistogram(0, 100, 200)
	b, _ := NewHistogram(0, 100, 200)
	var sample []float64
	rng := 12345.0
	for i := 0; i < 500; i++ {
		rng = math.Mod(rng*997+13, 100)
		sample = append(sample, rng)
		if i%2 == 0 {
			a.Observe(rng)
		} else {
			b.Observe(rng)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	exact, err := Quantiles(sample, 0.5, 0.95, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range []float64{0.5, 0.95, 0.99} {
		if got := a.Quantile(p); math.Abs(got-exact[i]) > 1.0 {
			t.Fatalf("merged Quantile(%v) = %v, exact = %v", p, got, exact[i])
		}
	}
}
