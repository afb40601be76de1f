package adjudicate

import (
	"testing"
	"time"

	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/xrand"
)

// TestAdjudicatorsSteadyStateZeroAlloc holds every reply-level strategy
// to zero allocations per adjudication on a realistic mixed reply set
// (the success path; the error paths wrap sentinels and may allocate).
func TestAdjudicatorsSteadyStateZeroAlloc(t *testing.T) {
	replies := []Reply{
		{Release: "1.0", Body: []byte("<r><x>42</x></r>"), Latency: 120 * time.Millisecond},
		{Release: "1.1", Body: []byte("<r><x>42</x></r>"), Latency: 80 * time.Millisecond},
		{Release: "1.2", Body: []byte("<r><x>41</x></r>"), Latency: 60 * time.Millisecond},
		{Release: "1.3", Err: ErrNoResponses, Latency: 10 * time.Millisecond},
	}
	rng := xrand.New(5)
	for _, adj := range []Adjudicator{
		RandomValid{},
		Majority{},
		FastestValid{},
		Preferred{Release: "1.1"},
		Preferred{Release: "gone", Fallback: Majority{}},
	} {
		// Warm the group scratch pool outside the measurement.
		if _, err := adj.Adjudicate(replies, rng); err != nil {
			t.Fatalf("%#v: %v", adj, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := adj.Adjudicate(replies, rng); err != nil {
				t.Fatalf("%#v: %v", adj, err)
			}
		})
		if allocs != 0 {
			t.Errorf("%#v: %v allocs per adjudication, want 0", adj, allocs)
		}
	}
}

// TestKindsZeroAlloc holds the §5.2.1 rule to zero allocations on a
// reply of each outcome kind.
func TestKindsZeroAlloc(t *testing.T) {
	collected := kindReplies(relmodel.Correct, relmodel.EvidentFailure, relmodel.NonEvidentFailure)
	rng := xrand.New(6)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := (RandomValid{}).Adjudicate(collected, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("RandomValid: %v allocs, want 0", allocs)
	}
}

// TestMajorityScratchDoesNotLeakReplies pins the pooling discipline:
// after an adjudication, recycled group buckets must not retain the
// replies' bodies (the pool would otherwise extend body lifetimes past
// the dispatch that owns them).
func TestMajorityScratchDoesNotLeakReplies(t *testing.T) {
	replies := []Reply{
		{Release: "1.0", Body: []byte("<r>1</r>")},
		{Release: "1.1", Body: []byte("<r>1</r>")},
	}
	if _, err := (Majority{}).Adjudicate(replies, xrand.New(7)); err != nil {
		t.Fatal(err)
	}
	scratch := groupScratch.Get(0)
	for i := 0; i < cap(scratch); i++ {
		g := scratch[:cap(scratch)][i]
		if g.rep.Body != nil || g.rep.Header != nil || g.size != 0 {
			t.Fatalf("pooled group %d retains %+v", i, g)
		}
	}
	groupScratch.Put(scratch)
}

// TestFastestValidMatchesSortSemantics pins the linear min-scan against
// the previous sort-based implementation: lowest latency wins, latency
// ties break by release name, evident failures never win.
func TestFastestValidMatchesSortSemantics(t *testing.T) {
	rng := xrand.New(8)
	replies := []Reply{
		{Release: "1.2", Body: []byte("b"), Latency: 50 * time.Millisecond},
		{Release: "1.0", Err: ErrAllEvident, Latency: 1 * time.Millisecond},
		{Release: "1.3", Body: []byte("c"), Latency: 50 * time.Millisecond},
		{Release: "1.1", Body: []byte("a"), Latency: 90 * time.Millisecond},
	}
	win, err := (FastestValid{}).Adjudicate(replies, rng)
	if err != nil {
		t.Fatal(err)
	}
	if win.Release != "1.2" {
		t.Fatalf("winner %s, want 1.2 (latency tie broken by name)", win.Release)
	}
}
