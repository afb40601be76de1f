package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at step %d", i)
		}
	}
}

func TestSeedsDecorrelate(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent seeds produced %d identical outputs of %d", same, n)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child stream must not replay the parent stream.
	p := New(7)
	p.Uint64() // consume the draw Split used
	for i := 0; i < 100; i++ {
		if child.Uint64() == p.Uint64() {
			t.Fatalf("split stream mirrors parent at step %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(5)
	counts := make([]int, 7)
	const n = 70000
	for i := 0; i < n; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
		counts[v]++
	}
	for i, c := range counts {
		if c < n/7-1000 || c > n/7+1000 {
			t.Fatalf("Intn bucket %d count %d deviates from uniform %d", i, c, n/7)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBoolEdges(t *testing.T) {
	r := New(9)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestExpMoments(t *testing.T) {
	r := New(13)
	const mean = 0.7
	const n = 400000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Exp(mean)
		if v < 0 {
			t.Fatalf("negative exponential draw %v", v)
		}
		sum += v
		sumsq += v * v
	}
	m := sum / n
	variance := sumsq/n - m*m
	if math.Abs(m-mean) > 0.01 {
		t.Fatalf("Exp mean = %v, want ~%v", m, mean)
	}
	if math.Abs(variance-mean*mean) > 0.03 {
		t.Fatalf("Exp variance = %v, want ~%v", variance, mean*mean)
	}
}

func TestExpZeroMean(t *testing.T) {
	if v := New(1).Exp(0); v != 0 {
		t.Fatalf("Exp(0) = %v, want 0", v)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(17)
	const n = 400000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Normal()
		sum += v
		sumsq += v * v
	}
	m := sum / n
	variance := sumsq/n - m*m
	if math.Abs(m) > 0.01 {
		t.Fatalf("Normal mean = %v, want ~0", m)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("Normal variance = %v, want ~1", variance)
	}
}

func TestGammaMoments(t *testing.T) {
	r := New(19)
	for _, shape := range []float64{0.5, 1, 2, 5, 20} {
		const n = 200000
		sum := 0.0
		for i := 0; i < n; i++ {
			v := r.Gamma(shape)
			if v < 0 {
				t.Fatalf("negative Gamma(%v) draw %v", shape, v)
			}
			sum += v
		}
		m := sum / n
		if math.Abs(m-shape) > 0.05*shape+0.02 {
			t.Fatalf("Gamma(%v) mean = %v, want ~%v", shape, m, shape)
		}
	}
}

func TestBetaMoments(t *testing.T) {
	r := New(23)
	cases := []struct{ a, b float64 }{
		{20, 20}, {2, 3}, {1, 10}, {0.5, 0.5},
	}
	for _, c := range cases {
		const n = 200000
		sum := 0.0
		for i := 0; i < n; i++ {
			v := r.Beta(c.a, c.b)
			if v < 0 || v > 1 {
				t.Fatalf("Beta(%v,%v) out of [0,1]: %v", c.a, c.b, v)
			}
			sum += v
		}
		want := c.a / (c.a + c.b)
		m := sum / n
		if math.Abs(m-want) > 0.01 {
			t.Fatalf("Beta(%v,%v) mean = %v, want ~%v", c.a, c.b, m, want)
		}
	}
}

func TestCategoricalProportions(t *testing.T) {
	r := New(31)
	w := []float64{1, 2, 3, 4}
	counts := make([]float64, len(w))
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Categorical(w)]++
	}
	for i, c := range counts {
		want := w[i] / 10 * n
		if math.Abs(c-want) > 0.05*want+200 {
			t.Fatalf("Categorical bucket %d: %v draws, want ~%v", i, c, want)
		}
	}
}

func TestCategoricalZeroWeightNeverDrawn(t *testing.T) {
	r := New(37)
	w := []float64{0, 1, 0}
	for i := 0; i < 10000; i++ {
		if got := r.Categorical(w); got != 1 {
			t.Fatalf("Categorical drew zero-weight bucket %d", got)
		}
	}
}

func TestCategoricalPanics(t *testing.T) {
	for name, w := range map[string][]float64{
		"negative": {1, -1},
		"all-zero": {0, 0},
		"nan":      {math.NaN()},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Categorical(%s) did not panic", name)
				}
			}()
			New(1).Categorical(w)
		}()
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(41)
	if err := quick.Check(func(seed uint64) bool {
		n := int(seed%20) + 1
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= r.Uint64()
	}
	_ = sink
}

func BenchmarkBeta(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Beta(2, 3)
	}
	_ = sink
}
