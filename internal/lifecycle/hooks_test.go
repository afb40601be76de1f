package lifecycle

import (
	"sync"
	"testing"
)

// A panicking observer must not prevent observers registered after it
// from seeing the transition, and must not propagate out of Fire (which
// would wedge the management call that published the phase change).
func TestHooksFirePanickingObserverIsContained(t *testing.T) {
	var h Hooks[Transition]
	var order []string
	h.Add(func(Transition) { order = append(order, "first") })
	h.Add(func(Transition) { panic("subscriber bug") })
	h.Add(func(Transition) { order = append(order, "last") })

	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("Fire propagated observer panic: %v", r)
			}
		}()
		h.Fire(Transition{From: PhaseOldOnly, To: PhaseObservation, Cause: CauseManual})
	}()

	if len(order) != 2 || order[0] != "first" || order[1] != "last" {
		t.Fatalf("observers after the panicking one were skipped: ran %v", order)
	}
}

// Every registered observer keeps receiving later transitions even when
// one of them panics on every delivery.
func TestHooksFireRepeatedPanicsDoNotWedge(t *testing.T) {
	var h Hooks[Transition]
	var mu sync.Mutex
	seen := 0
	h.Add(func(Transition) { panic("always") })
	h.Add(func(Transition) { mu.Lock(); seen++; mu.Unlock() })

	const fires = 5
	for i := 0; i < fires; i++ {
		h.Fire(Transition{From: PhaseObservation, To: PhaseParallel, Cause: CausePolicy})
	}
	if seen != fires {
		t.Fatalf("healthy observer saw %d of %d transitions", seen, fires)
	}
}

func TestCauseRecoveryString(t *testing.T) {
	if got := CauseRecovery.String(); got != "recovery" {
		t.Fatalf("CauseRecovery.String() = %q", got)
	}
	if CauseRecovery == CauseManual || CauseRecovery == CausePolicy || CauseRecovery == CauseTopology {
		t.Fatal("CauseRecovery collides with an existing cause")
	}
}
