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

// referencePosterior is WhiteBox.Posterior as it stood before the
// evidence-proportional rewrite, kept verbatim as the differential
// reference: all five streams for every cell, one Exp per cell with exp
// underflow as the only cutoff, the P_AB bin by a float divide per cell
// (pabVals, which the engine no longer stores, is recomputed here by the
// constructor's expression), and every slice of the result a fresh copy.
func referencePosterior(w *WhiteBox, c JointCounts) (*Posterior, error) {
	if !c.Valid() {
		return nil, fmt.Errorf("%w: inconsistent counts %+v", ErrBadConfig, c)
	}
	r1 := float64(c.Both)
	r2 := float64(c.AOnly)
	r3 := float64(c.BOnly)
	r4 := float64(c.Neither())

	pabVals := make([]float64, 0, len(w.logPrior))
	for _, pa := range w.paXs {
		for _, pb := range w.pbXs {
			m := math.Min(pa, pb)
			for k := 0; k < w.cfg.GridC; k++ {
				pabVals = append(pabVals, m*(float64(k)+0.5)/float64(w.cfg.GridC))
			}
		}
	}

	cells := len(w.logPrior)
	logs := make([]float64, cells)
	maxL := math.Inf(-1)
	for idx := 0; idx < cells; idx++ {
		ll := w.logPrior[idx] + r1*w.l11[idx] + r2*w.l10[idx] + r3*w.l01[idx] + r4*w.l00[idx]
		logs[idx] = ll
		if ll > maxL {
			maxL = ll
		}
	}
	if math.IsInf(maxL, -1) {
		return nil, fmt.Errorf("%w: posterior has no mass (all cells -Inf)", ErrBadConfig)
	}

	nA, nB, nC := w.cfg.GridA, w.cfg.GridB, w.cfg.GridC
	wsA := make([]float64, nA)
	wsB := make([]float64, nB)
	abUpper := math.Min(w.cfg.PriorA.Upper, w.cfg.PriorB.Upper)
	nAB := w.cfg.GridAB
	wsAB := make([]float64, nAB)
	var total stats.KahanSum

	idx := 0
	for i := 0; i < nA; i++ {
		for j := 0; j < nB; j++ {
			for k := 0; k < nC; k++ {
				p := math.Exp(logs[idx] - maxL)
				if p > 0 {
					wsA[i] += p
					wsB[j] += p
					bin := int(float64(nAB) * pabVals[idx] / abUpper)
					if bin >= nAB {
						bin = nAB - 1
					}
					wsAB[bin] += p
					total.Add(p)
				}
				idx++
			}
		}
	}
	t := total.Sum()
	if t <= 0 || math.IsInf(t, 0) || math.IsNaN(t) {
		return nil, fmt.Errorf("%w: posterior mass %v", ErrBadConfig, t)
	}
	for i := range wsA {
		wsA[i] /= t
	}
	for j := range wsB {
		wsB[j] /= t
	}
	for b := range wsAB {
		wsAB[b] /= t
	}

	post := &Posterior{
		Counts: c,
		A:      &stats.Grid1D{Xs: append([]float64(nil), w.paXs...), Ws: wsA},
		B:      &stats.Grid1D{Xs: append([]float64(nil), w.pbXs...), Ws: wsB},
		AB:     &stats.Grid1D{Xs: midpoints(abUpper, nAB), Ws: wsAB},
	}
	return post, nil
}

// differentialGrids are the three engines the rewrite is checked on:
// the default resolution, the scenario grid per-demand publication runs
// on, and the smallest grid the constructor accepts.
func differentialGrids(t *testing.T) map[string]*WhiteBox {
	t.Helper()
	pa, pb := scenario1Priors()
	wide := stats.ScaledBeta{Alpha: 1, Beta: 3, Upper: 0.3}
	grids := map[string]*WhiteBox{}
	for name, cfg := range map[string]WhiteBoxConfig{
		"default-100x100x40": {PriorA: pa, PriorB: pb},
		"scenario-40x40x10":  {PriorA: wide, PriorB: wide, GridA: 40, GridB: 40, GridC: 10, GridAB: 48},
		"minimum-2x2x1":      {PriorA: wide, PriorB: pb, GridA: 2, GridB: 2, GridC: 1, GridAB: 2},
	} {
		w, err := NewWhiteBox(cfg)
		if err != nil {
			t.Fatal(err)
		}
		grids[name] = w
	}
	return grids
}

// differentialCounts are the edge records plus n random ones, drawn
// across the magnitudes a campaign passes through.
func differentialCounts(rng *xrand.Rand, n int) []JointCounts {
	counts := []JointCounts{
		{},
		{N: 1}, {N: 100}, {N: 6000}, {N: 10000000}, // all-Neither
		{N: 1, Both: 1}, {N: 500, Both: 500}, {N: 10000000, Both: 10000000}, // all-Both
		{N: 1000000, Both: 1}, {N: 1000000, AOnly: 1}, {N: 1000000, BOnly: 1}, // one failure in 10⁶
		{N: 300, AOnly: 300}, {N: 300, BOnly: 300},
		// Inconsistent records: both sides must refuse them alike.
		{N: -1}, {N: 5, Both: -1}, {N: 5, AOnly: -2, BOnly: 2}, {N: 3, Both: 2, AOnly: 1, BOnly: 1},
	}
	for i := 0; i < n; i++ {
		total := int(math.Pow(10, 7*rng.Float64()))
		failures := int(float64(total) * math.Pow(10, -6*rng.Float64()))
		var c JointCounts
		c.N = total
		c.Both = rng.Intn(failures + 1)
		c.AOnly = rng.Intn(failures - c.Both + 1)
		c.BOnly = failures - c.Both - c.AOnly
		counts = append(counts, c)
	}
	return counts
}

func TestPosteriorMatchesReference(t *testing.T) {
	const tol = 1e-12
	rng := xrand.New(20040628)
	for name, w := range differentialGrids(t) {
		random := 60
		if len(w.logPrior) > 100000 {
			random = 12 // the reference sweeps 400 000 cells per call
		}
		for _, c := range differentialCounts(rng, random) {
			got, gotErr := w.Posterior(c)
			want, wantErr := referencePosterior(w, c)
			if gotErr != nil || wantErr != nil {
				if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
					t.Errorf("%s %+v: error %v, reference %v", name, c, gotErr, wantErr)
				}
				continue
			}
			if got.Counts != want.Counts {
				t.Errorf("%s %+v: counts %+v", name, c, got.Counts)
			}
			for _, m := range []struct {
				name      string
				got, want *stats.Grid1D
			}{{"A", got.A, want.A}, {"B", got.B, want.B}, {"AB", got.AB, want.AB}} {
				if !slices.Equal(m.got.Xs, m.want.Xs) {
					t.Fatalf("%s %+v: %s support differs", name, c, m.name)
				}
				if len(m.got.Ws) != len(m.want.Ws) {
					t.Fatalf("%s %+v: %s has %d weights, reference %d", name, c, m.name, len(m.got.Ws), len(m.want.Ws))
				}
				for i, v := range m.got.Ws {
					if math.Abs(v-m.want.Ws[i]) > tol {
						t.Errorf("%s %+v: %s weight %d = %v, reference %v", name, c, m.name, i, v, m.want.Ws[i])
					}
				}
			}
			for _, target := range []float64{1e-4, 1e-3, 0.01, 0.1} {
				for fn, pair := range map[string][2]float64{
					"ConfidenceA":  {got.ConfidenceA(target), want.ConfidenceA(target)},
					"ConfidenceB":  {got.ConfidenceB(target), want.ConfidenceB(target)},
					"ConfidenceAB": {got.ConfidenceAB(target), want.ConfidenceAB(target)},
				} {
					if math.Abs(pair[0]-pair[1]) > tol {
						t.Errorf("%s %+v: %s(%v) = %v, reference %v", name, c, fn, target, pair[0], pair[1])
					}
				}
			}
			for _, conf := range []float64{0.5, 0.9, 0.99, 0.999} {
				if g, r := got.PercentileA(conf), want.PercentileA(conf); math.Abs(g-r) > tol {
					t.Errorf("%s %+v: PercentileA(%v) = %v, reference %v", name, c, conf, g, r)
				}
				if g, r := got.PercentileB(conf), want.PercentileB(conf); math.Abs(g-r) > tol {
					t.Errorf("%s %+v: PercentileB(%v) = %v, reference %v", name, c, conf, g, r)
				}
			}
		}
	}
}

// The pruning constant must keep its promise on every engine: the cells
// left out weigh, together, less than half an ulp of a normalising sum
// that is at least 1.
func TestPruneBoundIsHalfAnUlp(t *testing.T) {
	for name, w := range differentialGrids(t) {
		discarded := float64(len(w.logPrior)) * math.Exp(-w.pruneBelow)
		if halfUlp := math.Nextafter(1, 2) - 1; discarded >= halfUlp/2 {
			t.Errorf("%s: up to %g discarded, half an ulp of 1 is %g", name, discarded, halfUlp/2)
		}
	}
}

// The scratch pool is the engine's only shared mutable state: eight
// goroutines sweeping different records at once (run under -race) must
// each get exactly what a lone caller gets.
func TestPosteriorConcurrent(t *testing.T) {
	w := differentialGrids(t)["scenario-40x40x10"]
	counts := differentialCounts(xrand.New(7), 24)
	want := make([]*Posterior, len(counts))
	for i, c := range counts {
		want[i], _ = w.Posterior(c)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for i := range counts {
					i = (i + g*5) % len(counts)
					got, err := w.Posterior(counts[i])
					if want[i] == nil {
						if err == nil {
							t.Errorf("%+v accepted under contention", counts[i])
						}
						continue
					}
					if err != nil {
						t.Errorf("%+v: %v", counts[i], err)
						continue
					}
					if !slices.Equal(got.A.Ws, want[i].A.Ws) || !slices.Equal(got.B.Ws, want[i].B.Ws) ||
						!slices.Equal(got.AB.Ws, want[i].AB.Ws) {
						t.Errorf("%+v: marginals differ under contention", counts[i])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// A caller owns the weights it is handed: scribbling over them, or
// appending to one marginal, reaches neither the next call's result nor
// the neighbouring marginal.
func TestPosteriorWeightsAreTheCallers(t *testing.T) {
	w := differentialGrids(t)["scenario-40x40x10"]
	c := JointCounts{N: 400, AOnly: 3, BOnly: 1}
	first, err := w.Posterior(c)
	if err != nil {
		t.Fatal(err)
	}
	wantA, wantB, wantAB := slices.Clone(first.A.Ws), slices.Clone(first.B.Ws), slices.Clone(first.AB.Ws)

	_ = append(first.A.Ws, 42)
	_ = append(first.B.Ws, 42)
	if !slices.Equal(first.B.Ws, wantB) || !slices.Equal(first.AB.Ws, wantAB) {
		t.Fatal("appending to one marginal's weights overwrote the next marginal")
	}
	for _, ws := range [][]float64{first.A.Ws, first.B.Ws, first.AB.Ws} {
		for i := range ws {
			ws[i] = math.NaN()
		}
	}
	second, err := w.Posterior(c)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(second.A.Ws, wantA) || !slices.Equal(second.B.Ws, wantB) || !slices.Equal(second.AB.Ws, wantAB) {
		t.Fatal("mutating a returned posterior changed the next call's result")
	}
}

// referenceTables are NewWhiteBox's cell tables as its per-cell loop
// computed them before the smaller release's logarithms were taken once
// per grid point: four logarithms per cell, from math.Min(pa, pb).
func referenceTables(w *WhiteBox) (logPrior, l11, l10, l01, l00 []float64, abBin []int32, maxLog [4]float64) {
	cfg := w.cfg
	abUpper := math.Min(cfg.PriorA.Upper, cfg.PriorB.Upper)
	maxLog = [4]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for _, pa := range w.paXs {
		for _, pb := range w.pbXs {
			m := math.Min(pa, pb)
			lp := cfg.PriorA.LogPDF(pa) + cfg.PriorB.LogPDF(pb)
			for k := 0; k < cfg.GridC; k++ {
				pab := m * (float64(k) + 0.5) / float64(cfg.GridC)
				bin := int(float64(cfg.GridAB) * pab / abUpper)
				if bin >= cfg.GridAB {
					bin = cfg.GridAB - 1
				}
				abBin = append(abBin, int32(bin))
				logPrior = append(logPrior, lp)
				l11 = append(l11, math.Log(pab))
				l10 = append(l10, math.Log(pa-pab))
				l01 = append(l01, math.Log(pb-pab))
				l00 = append(l00, math.Log1p(-(pa + pb - pab)))
			}
			first, last := len(l11)-cfg.GridC, len(l11)-1
			for o, l := range [4]float64{l11[last], l10[first], l01[first], l00[last]} {
				maxLog[o] = max(maxLog[o], l)
			}
		}
	}
	return logPrior, l11, l10, l01, l00, abBin, maxLog
}

// NewWhiteBox's tables are, bit for bit, what the per-cell loop computed:
// on grids where either release's pfd is the smaller, where the two
// supports differ, where the priors do, and at the smallest grids.
func TestWhiteBoxTablesMatchPerCellLoop(t *testing.T) {
	pa, pb := scenario1Priors()
	wide := stats.ScaledBeta{Alpha: 1, Beta: 3, Upper: 0.3}
	narrow := stats.ScaledBeta{Alpha: 2, Beta: 5, Upper: 0.1}
	for name, cfg := range map[string]WhiteBoxConfig{
		"default-100x100x40": {PriorA: pa, PriorB: pb},
		"scenario-40x40x10":  {PriorA: wide, PriorB: wide, GridA: 40, GridB: 40, GridC: 10, GridAB: 48},
		"minimum-2x2x1":      {PriorA: wide, PriorB: pb, GridA: 2, GridB: 2, GridC: 1, GridAB: 2},
		"asymmetric-30x17x7": {PriorA: narrow, PriorB: wide, GridA: 30, GridB: 17, GridC: 7, GridAB: 20},
		"asymmetric-17x30x1": {PriorA: wide, PriorB: narrow, GridA: 17, GridB: 30, GridC: 1, GridAB: 9},
		"gridA-2-2x50x12":    {PriorA: wide, PriorB: wide, GridA: 2, GridB: 50, GridC: 12, GridAB: 64},
	} {
		w, err := NewWhiteBox(cfg)
		if err != nil {
			t.Fatal(err)
		}
		logPrior, l11, l10, l01, l00, abBin, maxLog := referenceTables(w)
		for tname, c := range map[string][2][]float64{
			"logPrior": {w.logPrior, logPrior}, "l11": {w.l11, l11}, "l10": {w.l10, l10},
			"l01": {w.l01, l01}, "l00": {w.l00, l00}, "maxLog": {w.maxLog[:], maxLog[:]},
		} {
			if !slices.EqualFunc(c[0], c[1], func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
				t.Errorf("%s: %s differs from the per-cell loop's", name, tname)
			}
		}
		if !slices.Equal(w.abBin, abBin) {
			t.Errorf("%s: abBin differs from the per-cell loop's", name)
		}
	}
}
