package bayes

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"wsupgrade/internal/stats"
	"wsupgrade/internal/xrand"
)

// scenarioEngine is the grid per-demand publication runs on
// (differentialGrids' "scenario-40x40x10") at gridA × gridA × 10 cells.
func scenarioEngine(t testing.TB, gridA int) *WhiteBox {
	t.Helper()
	wide := stats.ScaledBeta{Alpha: 1, Beta: 3, Upper: 0.3}
	w, err := NewWhiteBox(WhiteBoxConfig{PriorA: wide, PriorB: wide, GridA: gridA, GridB: gridA, GridC: 10, GridAB: 48})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// A walk is what a monitored campaign hands the inference: one or more
// count streams, each starting somewhere and then moved step by step,
// every step followed by a query. The oracle for PosteriorFrom is the
// predecessor-less Posterior of the same counts.

type walkStep struct {
	stream int
	d      JointCounts // field-wise change; d.N is the change of the total
}

// add moves c by d, keeping N the sum it is.
func (c JointCounts) add(d JointCounts) JointCounts {
	return JointCounts{N: c.N + d.N, Both: c.Both + d.Both, AOnly: c.AOnly + d.AOnly, BOnly: c.BOnly + d.BOnly}
}

func clean(n int) JointCounts { return JointCounts{N: n} }

// fail is n failures of one kind.
func fail(o JointOutcome, n int) JointCounts {
	d := JointCounts{N: n}
	switch o {
	case BothFail:
		d.Both = n
	case AOnlyFails:
		d.AOnly = n
	case BOnlyFails:
		d.BOnly = n
	}
	return d
}

// fullPass reports whether p came out of a full pass: it carries no
// frontier, or one based at its own counts.
func fullPass(p *Posterior) bool { return p.front.model == nil || p.front.base == p.Counts }

func sameMarginals(a, b *Posterior) bool {
	return slices.Equal(a.A.Ws, b.A.Ws) && slices.Equal(a.B.Ws, b.B.Ws) && slices.Equal(a.AB.Ws, b.AB.Ws)
}

// checkWalk runs the walk and requires every query to agree with the
// oracle: the same error, or marginals equal weight for weight (==).
// Alongside, ConfidencesFrom walks the same counts through its own
// chain of predecessors and must read the oracle's two CDFs at
// walkTarget, bit for bit. With shared set all streams hand on one
// predecessor — the thrashing the memo's per-operation slots avoid,
// still required to be right. It returns how many queries were
// answered and how many by a full pass.
func checkWalk(t testing.TB, w *WhiteBox, start []JointCounts, steps []walkStep, shared bool) (queries, full int) {
	t.Helper()
	const walkTarget = 0.05
	counts := slices.Clone(start)
	prev := make([]*Posterior, len(start))
	prevConf := make([]*Posterior, len(start))
	for i, st := range steps {
		s := st.stream
		slot := s
		if shared {
			slot = 0
		}
		counts[s] = counts[s].add(st.d)
		got, gotErr := w.PosteriorFrom(prev[slot], counts[s])
		confA, confB, next, confErr := w.ConfidencesFrom(prevConf[slot], counts[s], walkTarget)
		want, wantErr := w.Posterior(counts[s])
		if gotErr != nil || confErr != nil || wantErr != nil {
			if gotErr == nil || confErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() ||
				confErr.Error() != wantErr.Error() {
				t.Fatalf("step %d %+v: error %v, ConfidencesFrom %v, full pass %v", i, counts[s], gotErr, confErr, wantErr)
			}
			continue
		}
		if wantA, wantB := want.ConfidenceA(walkTarget), want.ConfidenceB(walkTarget); math.Float64bits(confA) != math.Float64bits(wantA) ||
			math.Float64bits(confB) != math.Float64bits(wantB) {
			t.Fatalf("step %d %+v: ConfidencesFrom reads (%v, %v), the full pass (%v, %v)", i, counts[s], confA, confB, wantA, wantB)
		}
		prevConf[slot] = next
		if got.Counts != counts[s] {
			t.Fatalf("step %d: posterior of %+v carries counts %+v", i, counts[s], got.Counts)
		}
		if !sameMarginals(got, want) {
			t.Fatalf("step %d %+v (frontier based at %+v, %d cells): marginals differ from the full pass",
				i, counts[s], got.front.base, len(got.front.cells))
		}
		queries++
		if fullPass(got) {
			full++
		}
		prev[slot] = got
	}
	return queries, full
}

type walk struct {
	start []JointCounts // one per stream
	steps []walkStep
}

// walks are the shapes the property test and the fuzz seeds share.
func walks(rng *xrand.Rand, steps int) map[string]walk {
	repeat := func(n int, ds ...JointCounts) []walkStep {
		var out []walkStep
		for len(out) < n {
			for _, d := range ds {
				out = append(out, walkStep{d: d})
			}
		}
		return out[:n]
	}
	ws := map[string]walk{
		"clean":          {[]JointCounts{{N: 6000}}, repeat(steps, clean(1))},
		"clean-from-0":   {[]JointCounts{{}}, repeat(steps, clean(37))},
		"a-failures":     {[]JointCounts{{N: 6000}}, repeat(steps, clean(1), fail(AOnlyFails, 1))},
		"b-failures":     {[]JointCounts{{N: 6000, AOnly: 1}}, repeat(steps, clean(3), fail(BOnlyFails, 1))},
		"both-failures":  {[]JointCounts{{N: 40000}}, repeat(steps, fail(BothFail, 1), clean(500))},
		"failure-burst":  {[]JointCounts{{N: 6000}}, repeat(steps, clean(1), clean(1), fail(AOnlyFails, 250), clean(1))},
		"clean-burst":    {[]JointCounts{{N: 2000, BOnly: 2}}, repeat(steps, clean(1), clean(30000))},
		"high-n":         {[]JointCounts{{N: 1000000, Both: 1, AOnly: 5, BOnly: 3}}, repeat(steps, clean(1000), fail(BOnlyFails, 1))},
		"decreasing":     {[]JointCounts{{N: 9000, AOnly: 4}}, repeat(steps, clean(1), clean(-700), fail(AOnlyFails, -1), clean(2))},
		"into-the-red":   {[]JointCounts{{N: 1}}, repeat(steps, clean(-2), fail(BothFail, 1), clean(5))},
		"two-streams":    {[]JointCounts{{N: 6000}, {N: 40000, AOnly: 3}}, nil},
		"random-streams": {[]JointCounts{{N: 800}, {N: 250000, Both: 2, AOnly: 9, BOnly: 7}}, nil},
	}
	two := ws["two-streams"]
	for i := 0; i < steps; i++ {
		two.steps = append(two.steps, walkStep{stream: i % 2, d: clean(1 + i%3)})
	}
	ws["two-streams"] = two
	random := ws["random-streams"]
	for i := 0; i < steps; i++ {
		d := clean(1 + rng.Intn(40))
		if rng.Intn(6) == 0 {
			d = fail(JointOutcome(1+rng.Intn(3)), 1+rng.Intn(3))
		}
		random.steps = append(random.steps, walkStep{stream: rng.Intn(2), d: d})
	}
	ws["random-streams"] = random
	return ws
}

// PosteriorFrom must be Posterior, bit for bit, wherever a campaign can
// take the counts — and the walks must actually reach the frontier pass,
// or the comparison proves nothing.
//
// Mutation check (PR 18, by hand): with the drift test taken out of
// covers, the a-failures, b-failures and failure-burst walks fail on the
// scenario grid, and three of the fuzz seeds; with the frontier collected
// at L − K instead of L − 2K (the budget left at K) those three fail
// again, with random-streams and, on the default grid, high-n.
func TestFrontierMatchesFullPass(t *testing.T) {
	rng := xrand.New(18)
	for name, w := range differentialGrids(t) {
		// On the default grid the oracle sweeps 400 000 cells per query
		// and nothing below N ≈ 10⁶ keeps a frontier: one short walk.
		big := len(w.logPrior) > 100000
		steps := 120
		if big {
			steps = 6
		}
		frontierPasses := 0
		for wname, wk := range walks(rng, steps) {
			if big && wname != "high-n" {
				continue
			}
			for _, shared := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/shared=%v", name, wname, shared), func(t *testing.T) {
					queries, full := checkWalk(t, w, wk.start, wk.steps, shared)
					frontierPasses += queries - full
				})
			}
		}
		t.Logf("%s: %d queries answered from a frontier", name, frontierPasses)
		if name == "scenario-40x40x10" && frontierPasses < 1000 {
			t.Errorf("%s: only %d queries took the frontier pass", name, frontierPasses)
		}
	}
}

// The frontier has to pay for itself on the live shape: a campaign that
// has passed its 6 000-demand warm-up and then sees mostly clean demands
// re-runs the full pass only when the drift budget is spent or the
// frontier has become loose, and two
// streams far apart in N, each handing on its own predecessor as the
// memo's slots do, leave one another's frontier alone.
func TestFrontierFullPassesAreRare(t *testing.T) {
	w := scenarioEngine(t, 40)

	c := JointCounts{N: 6000}
	var prev *Posterior
	full := 0
	for i := 1; i <= 10000; i++ {
		d := clean(1)
		if i%1000 == 0 {
			d = fail(JointOutcome(1+(i/1000)%3), 1)
		}
		c = c.add(d)
		post, err := w.PosteriorFrom(prev, c)
		if err != nil {
			t.Fatal(err)
		}
		if fullPass(post) {
			full++
		}
		prev = post
	}
	if full > 25 {
		t.Errorf("10 000 demands with one failure per 1 000 took %d full passes, want at most 25", full)
	}

	// A campaign from nothing: once a frontier is kept at all (N ≈ 700,
	// an eighth of the grid) it must not be carried at that length for
	// good — a clean record never spends drift — but re-tightened as the
	// mass concentrates, at the price of a handful of full passes.
	c, prev, full = JointCounts{}, nil, 0
	for c.N < 40000 {
		c = c.add(clean(1))
		post, err := w.PosteriorFrom(prev, c)
		if err != nil {
			t.Fatal(err)
		}
		if c.N > 1000 && fullPass(post) {
			full++
		}
		prev = post
	}
	if n := len(prev.front.cells); full > 12 || n == 0 || n > 14 {
		t.Errorf("from N = 1 000 to 40 000: %d full passes (want at most 12), %d cells listed at the end (7 make a fresh frontier)", full, n)
	}

	counts := []JointCounts{{N: 6000}, {N: 40000, AOnly: 3}}
	prevs := make([]*Posterior, 2)
	full = 0
	for i := 0; i < 2000; i++ {
		s := i % 2
		counts[s] = counts[s].add(clean(1))
		post, err := w.PosteriorFrom(prevs[s], counts[s])
		if err != nil {
			t.Fatal(err)
		}
		if fullPass(post) {
			full++
		}
		prevs[s] = post
	}
	if full > 4 {
		t.Errorf("two interleaved streams took %d full passes over 2 000 queries, want at most 4", full)
	}
}

// A posterior of another engine is no predecessor: its frontier indexes
// a different grid.
func TestFrontierOfAnotherEngineIsIgnored(t *testing.T) {
	w, other := scenarioEngine(t, 40), scenarioEngine(t, 20)
	foreign, err := other.Posterior(JointCounts{N: 6000})
	if err != nil {
		t.Fatal(err)
	}
	if foreign.front.model != other {
		t.Fatal("the other engine kept no frontier at N = 6 000")
	}
	c := JointCounts{N: 6001}
	got, err := w.PosteriorFrom(foreign, c)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := w.Posterior(c)
	if !sameMarginals(got, want) {
		t.Fatal("a foreign predecessor changed the result")
	}
}

// FuzzPosteriorFrom drives PosteriorFrom along arbitrary walks with the
// predecessor-less Posterior as oracle. The input is the first stream's
// starting total and a byte per step: bit 0 picks one of two streams
// (the second starts at 40 000), bits 1–2 the outcome, bit 3 the sign,
// bits 4–7 the size (2^size/2 demands, so up to 16 384 at once).
func FuzzPosteriorFrom(f *testing.F) {
	encode := func(steps []walkStep) []byte {
		var out []byte
		for _, st := range steps {
			n, b := st.d.N, byte(st.stream&1)
			switch {
			case st.d.Both != 0:
				b |= 1 << 1
			case st.d.AOnly != 0:
				b |= 2 << 1
			case st.d.BOnly != 0:
				b |= 3 << 1
			}
			if n < 0 {
				n, b = -n, b|1<<3
			}
			size := 0
			for 1<<size < 2*n && size < 15 {
				size++
			}
			out = append(out, b|byte(size)<<4)
		}
		return out
	}
	for _, wk := range walks(xrand.New(18), 48) {
		f.Add(uint32(wk.start[0].N), encode(wk.steps))
	}
	w := scenarioEngine(f, 40)
	f.Fuzz(func(t *testing.T, start uint32, walk []byte) {
		if len(walk) > 256 {
			walk = walk[:256]
		}
		steps := make([]walkStep, len(walk))
		for i, b := range walk {
			n := 1 << (b >> 4) / 2
			if b&(1<<3) != 0 {
				n = -n
			}
			d := clean(n)
			if o := JointOutcome(b >> 1 & 3); o != 0 {
				d = fail(o, n)
			}
			steps[i] = walkStep{stream: int(b & 1), d: d}
		}
		starts := []JointCounts{{N: int(start % 10000000)}, {N: 40000}}
		checkWalk(t, w, starts, steps, false)
		checkWalk(t, w, starts, steps, true)
	})
}

// Racing callers may hand PosteriorFrom one and the same predecessor
// (the memo's slot is read by every demand in flight): the frontier is
// only read, so under -race each must still get the lone caller's bits.
func TestPosteriorConcurrentFrom(t *testing.T) {
	w := scenarioEngine(t, 40)
	base := JointCounts{N: 6000, AOnly: 1}
	prev, err := w.Posterior(base)
	if err != nil {
		t.Fatal(err)
	}
	const ahead = 32
	want := make([]*Posterior, ahead)
	for i := range want {
		want[i], _ = w.Posterior(base.add(clean(i)))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			mine := prev
			for round := 0; round < 4; round++ {
				for i := range want {
					i = (i + g*5) % ahead
					// Alternate the shared predecessor with this
					// goroutine's own last result.
					from := prev
					if (i+round)%2 == 0 {
						from = mine
					}
					got, err := w.PosteriorFrom(from, base.add(clean(i)))
					if err != nil {
						t.Errorf("N+%d: %v", i, err)
						continue
					}
					if !sameMarginals(got, want[i]) {
						t.Errorf("N+%d: marginals differ under contention", i)
					}
					mine = got
				}
			}
		}()
	}
	wg.Wait()
}

// NewWhiteBox finds each outcome stream's maximum from one cell per row
// (P_AB is the only thing that changes along a row); the drift bound is
// only a bound if those are the maxima over every cell.
func TestFrontierStreamMaxima(t *testing.T) {
	for name, w := range differentialGrids(t) {
		for o, l := range [4][]float64{w.l11, w.l10, w.l01, w.l00} {
			if m := slices.Max(l); m != w.maxLog[o] {
				t.Errorf("%s, outcome %d: maxLog is %v, the stream's maximum %v", name, o, w.maxLog[o], m)
			}
		}
	}
}

// ConfidencesFrom is PosteriorFrom read at a target. Chained through its
// own next over a seeded stream with failures of all three joint kinds,
// it must return, bit for bit, what a predecessor-less Posterior's
// ConfidenceA and ConfidenceB say, at two targets — and the stream must
// take all three of its ways: the frontier pass (next is prev), a full
// pass that leaves a frontier (next is new) and one that leaves none.
func TestFrontierConfidencesMatchPosterior(t *testing.T) {
	w := scenarioEngine(t, 40)
	for _, target := range []float64{0.01, 0.1} {
		rng := xrand.New(34)
		var prev *Posterior
		var c JointCounts
		kept, advanced, bare := 0, 0, 0
		for i := 0; i < 600; i++ {
			d := clean(1 + rng.Intn(8))
			if rng.Intn(25) == 0 {
				d = fail(JointOutcome(1+rng.Intn(3)), 1)
			}
			c = c.add(d)
			a, b, next, err := w.ConfidencesFrom(prev, c, target)
			if err != nil {
				t.Fatalf("%+v: %v", c, err)
			}
			want, err := w.Posterior(c)
			if err != nil {
				t.Fatal(err)
			}
			if wa, wb := want.ConfidenceA(target), want.ConfidenceB(target); math.Float64bits(a) != math.Float64bits(wa) ||
				math.Float64bits(b) != math.Float64bits(wb) {
				t.Fatalf("target %v, %+v: (%v, %v), the full pass reads (%v, %v)", target, c, a, b, wa, wb)
			}
			switch {
			case next == nil:
				bare++
			case next == prev:
				kept++
			default:
				advanced++
				if next.Counts != c || !fullPass(next) || !sameMarginals(next, want) {
					t.Fatalf("target %v, %+v: the new predecessor is not the full pass's posterior", target, c)
				}
			}
			prev = next
		}
		if kept == 0 || advanced == 0 || bare == 0 {
			t.Errorf("target %v: %d frontier passes, %d full passes leaving a frontier, %d leaving none; want each > 0",
				target, kept, advanced, bare)
		}
		if kept < 10*advanced {
			t.Errorf("target %v: %d frontier passes to %d new frontiers; the frontier pass should dominate", target, kept, advanced)
		}
	}
}
