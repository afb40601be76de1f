package lifecycle

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/stats"
)

func TestPhaseStrings(t *testing.T) {
	want := map[Phase]string{
		PhaseOldOnly:     "old-only",
		PhaseObservation: "observation",
		PhaseParallel:    "parallel",
		PhaseNewOnly:     "new-only",
		Phase(9):         "Phase(9)",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
}

func TestParsePhaseRoundTrips(t *testing.T) {
	for _, p := range []Phase{PhaseOldOnly, PhaseObservation, PhaseParallel, PhaseNewOnly} {
		got, err := ParsePhase(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePhase(%q) = %v, %v", p.String(), got, err)
		}
	}
	if _, err := ParsePhase("sideways"); !errors.Is(err, ErrBadPhase) {
		t.Errorf("ParsePhase garbage: %v", err)
	}
}

func TestValidateViability(t *testing.T) {
	for _, p := range []Phase{PhaseObservation, PhaseParallel} {
		if err := Validate(p, 1); !errors.Is(err, ErrBadPhase) {
			t.Errorf("%v with one release: %v", p, err)
		}
		if err := Validate(p, 2); err != nil {
			t.Errorf("%v with two releases: %v", p, err)
		}
	}
	for _, p := range []Phase{PhaseOldOnly, PhaseNewOnly} {
		if err := Validate(p, 1); err != nil {
			t.Errorf("%v with one release: %v", p, err)
		}
	}
	if err := Validate(Phase(0), 2); !errors.Is(err, ErrBadPhase) {
		t.Errorf("unknown phase: %v", err)
	}
}

// Every one of the 16 phase pairs is either legal or rejected with the
// typed error — checked exhaustively against the §4.1 semantics.
func TestDefaultRulesTransitionTable(t *testing.T) {
	phases := []Phase{PhaseOldOnly, PhaseObservation, PhaseParallel, PhaseNewOnly}
	legal := func(from, to Phase) bool {
		switch {
		case from == to: // no-op
			return true
		case from < to: // forward, skips included
			return true
		case to == PhaseOldOnly: // abort
			return true
		case from == PhaseNewOnly: // campaign restart
			return true
		}
		return false
	}
	for _, from := range phases {
		for _, to := range phases {
			err := CanTransition(from, to)
			if legal(from, to) {
				if err != nil {
					t.Errorf("%v → %v rejected: %v", from, to, err)
				}
				continue
			}
			var te *TransitionError
			if !errors.As(err, &te) {
				t.Errorf("%v → %v: error %v is not a *TransitionError", from, to, err)
				continue
			}
			if te.From != from || te.To != to {
				t.Errorf("%v → %v: error carries %v → %v", from, to, te.From, te.To)
			}
			if !errors.Is(err, ErrIllegalTransition) || !errors.Is(err, ErrBadPhase) {
				t.Errorf("%v → %v: error does not match the sentinels: %v", from, to, err)
			}
		}
	}
	// Exactly one pair is illegal: the backward step inside a live
	// campaign.
	if err := CanTransition(PhaseParallel, PhaseObservation); err == nil {
		t.Error("Parallel → Observation accepted")
	}
}

func TestCanTransitionRejectsUnknownPhases(t *testing.T) {
	if err := CanTransition(Phase(0), PhaseParallel); !errors.Is(err, ErrBadPhase) {
		t.Errorf("unknown from: %v", err)
	}
	if err := CanTransition(PhaseParallel, Phase(42)); !errors.Is(err, ErrBadPhase) {
		t.Errorf("unknown to: %v", err)
	}
}

func TestHooksFireInOrder(t *testing.T) {
	var h Hooks[Transition]
	var got []string
	h.Add(func(tr Transition) { got = append(got, "a:"+tr.To.String()) })
	h.Add(func(tr Transition) { got = append(got, "b:"+tr.To.String()) })
	h.Add(nil) // ignored
	h.Fire(Transition{From: PhaseParallel, To: PhaseNewOnly, Cause: CausePolicy})
	if len(got) != 2 || got[0] != "a:new-only" || got[1] != "b:new-only" {
		t.Fatalf("hooks fired: %v", got)
	}
}

func TestHooksConcurrentAddAndFire(t *testing.T) {
	var h Hooks[Transition]
	var mu sync.Mutex
	count := 0
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.Add(func(Transition) {
				mu.Lock()
				count++
				mu.Unlock()
			})
			h.Fire(Transition{From: PhaseOldOnly, To: PhaseObservation})
		}()
	}
	wg.Wait()
	h.Fire(Transition{From: PhaseObservation, To: PhaseParallel})
	mu.Lock()
	defer mu.Unlock()
	if count < 8 { // every observer sees at least the final fire
		t.Fatalf("count = %d", count)
	}
}

func TestCauseStrings(t *testing.T) {
	if CauseManual.String() != "manual" || CausePolicy.String() != "policy" ||
		CauseTopology.String() != "topology" || Cause(7).String() != "Cause(7)" {
		t.Fatal("cause strings wrong")
	}
}

func TestSwitchPolicyNormalize(t *testing.T) {
	p := SwitchPolicy{Criterion: bayes.Criterion3{Confidence: 0.9}}
	if err := p.Normalize(); err != nil {
		t.Fatal(err)
	}
	if p.CheckEvery != 50 || p.MinDemands != 50 {
		t.Fatalf("defaults: %+v", p)
	}
	bad := SwitchPolicy{}
	if err := bad.Normalize(); !errors.Is(err, ErrBadPolicy) {
		t.Fatalf("no criterion: %v", err)
	}
	neg := SwitchPolicy{Criterion: bayes.Criterion3{Confidence: 0.9}, CheckEvery: -1}
	if err := neg.Normalize(); !errors.Is(err, ErrBadPolicy) {
		t.Fatalf("negative interval: %v", err)
	}
}

func TestSwitchPolicyDue(t *testing.T) {
	p := SwitchPolicy{Criterion: bayes.Criterion3{Confidence: 0.9}, CheckEvery: 10, MinDemands: 30}
	cases := map[int]bool{0: false, 10: false, 29: false, 30: true, 35: false, 40: true}
	for n, want := range cases {
		if p.Due(n) != want {
			t.Errorf("Due(%d) = %v, want %v", n, p.Due(n), want)
		}
	}
}

func TestSwitchPolicyShouldSwitch(t *testing.T) {
	prior := stats.ScaledBeta{Alpha: 1, Beta: 1, Upper: 0.4}
	wb, err := bayes.NewWhiteBox(bayes.WhiteBoxConfig{
		PriorA: prior, PriorB: prior,
		GridA: 30, GridB: 30, GridC: 8, GridAB: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := SwitchPolicy{Criterion: bayes.Criterion3{Confidence: 0.6}, CheckEvery: 10, MinDemands: 10}
	// The old release fails often, the new one never: criterion 3 (new no
	// worse than old) is easily satisfied.
	counts := bayes.JointCounts{N: 100, AOnly: 40}
	if !p.ShouldSwitch(counts, wb) {
		t.Fatal("clear evidence did not switch")
	}
	// Not due: never evaluates.
	counts.N = 95
	if p.ShouldSwitch(counts, wb) {
		t.Fatal("switched off-schedule")
	}
	// No inference engine: never switches.
	counts.N = 100
	if p.ShouldSwitch(counts, nil) {
		t.Fatal("switched without inference")
	}
}

func TestTransitionErrorMessage(t *testing.T) {
	err := &TransitionError{From: PhaseParallel, To: PhaseObservation}
	want := fmt.Sprintf("lifecycle: illegal transition %v → %v", PhaseParallel, PhaseObservation)
	if err.Error() != want {
		t.Fatalf("message = %q", err.Error())
	}
}
