// Package lifecycle is the §4.1 upgrade lifecycle: the phase state
// machine a managed upgrade moves through, the guards that reject
// transitions the paper's process does not allow, the hooks the
// management subsystem uses to observe transitions, and the Bayesian
// switch policy (§5.1.1.2) that decides when the automatic transition to
// the new release may fire.
//
// The package deliberately does not own mutable state: the phase of an
// upgrade unit lives in its owner's atomically-published snapshot (one
// consistent value with the release set and the fan-out mode), and the
// owner consults Validate and CanTransition before publishing a
// successor. This keeps the hot path's single-atomic-load invariant
// while concentrating every lifecycle rule here.
//
// The canonical progression (§3.3, §4.1) is
//
//	OldOnly → Observation → Parallel → NewOnly
//
// Forward movement — including skipping phases — is a management
// decision the paper permits ("the number of responses and the timeout
// can be changed dynamically"; switching directly is mode 4's
// degenerate upgrade). Two backward movements are meaningful management
// operations:
//
//   - abort: any phase → OldOnly, rolling the campaign back to the old
//     release (e.g. the new release misbehaves during observation);
//   - restart: NewOnly → any phase, beginning a new campaign after a
//     completed switch (the switched-to release is the next campaign's
//     "old" release once a newer one is deployed).
//
// Every other backward movement (Parallel → Observation is the only
// one) is illegal: once adjudicated delivery has exposed the new
// release to consumers, the campaign either advances, aborts, or
// completes — it cannot "unobserve".
//
// Every is the one owned periodic loop the management subsystem's
// background work (health probes, journal snapshots) runs on.
package lifecycle

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"wsupgrade/internal/bayes"
)

// Errors reported by the lifecycle machine.
var (
	// ErrBadPhase reports a phase value outside the §4.1 lifecycle, or a
	// phase that is not viable for the deployed release count.
	ErrBadPhase = errors.New("lifecycle: bad phase")
	// ErrIllegalTransition reports a transition the §4.1 process forbids.
	ErrIllegalTransition = errors.New("lifecycle: illegal transition")
	// ErrBadPolicy reports an invalid switch policy.
	ErrBadPolicy = errors.New("lifecycle: bad switch policy")
)

// Phase is the upgrade lifecycle state (§3.3, §4.2).
type Phase int

const (
	// PhaseOldOnly: only the oldest release serves; newer releases are
	// deployed but not invoked.
	PhaseOldOnly Phase = iota + 1
	// PhaseObservation: all releases are invoked back-to-back; the old
	// release's response is delivered (§3.1's transitional period).
	PhaseObservation
	// PhaseParallel: all releases are invoked and the adjudicated
	// response is delivered (1-out-of-2 fault tolerance, §4.2 mode 1).
	PhaseParallel
	// PhaseNewOnly: only the newest release is invoked — the switch has
	// happened.
	PhaseNewOnly
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhaseOldOnly:
		return "old-only"
	case PhaseObservation:
		return "observation"
	case PhaseParallel:
		return "parallel"
	case PhaseNewOnly:
		return "new-only"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Known reports whether p is one of the four lifecycle phases.
func (p Phase) Known() bool {
	return p >= PhaseOldOnly && p <= PhaseNewOnly
}

// ParsePhase converts a phase name (the String form) back to its value.
func ParsePhase(s string) (Phase, error) {
	switch s {
	case "old-only":
		return PhaseOldOnly, nil
	case "observation":
		return PhaseObservation, nil
	case "parallel":
		return PhaseParallel, nil
	case "new-only":
		return PhaseNewOnly, nil
	default:
		return 0, fmt.Errorf("%w: %q", ErrBadPhase, s)
	}
}

// Validate checks that a phase is viable for the deployed release
// count: the multi-release phases need at least two releases.
func Validate(p Phase, releases int) error {
	switch p {
	case PhaseOldOnly, PhaseNewOnly:
		return nil
	case PhaseObservation, PhaseParallel:
		if releases < 2 {
			return fmt.Errorf("%w: %v needs at least two releases", ErrBadPhase, p)
		}
		return nil
	default:
		return fmt.Errorf("%w: %v", ErrBadPhase, p)
	}
}

// TransitionError is the typed rejection of an illegal transition.
// errors.Is matches it against both ErrIllegalTransition and
// ErrBadPhase (an illegal transition is a bad phase request to callers
// that don't care which rule rejected it).
type TransitionError struct {
	From, To Phase
}

// Error implements error.
func (e *TransitionError) Error() string {
	return fmt.Sprintf("lifecycle: illegal transition %v → %v", e.From, e.To)
}

// Is implements errors.Is matching.
func (e *TransitionError) Is(target error) bool {
	return target == ErrIllegalTransition || target == ErrBadPhase
}

// CanTransition reports whether §4.1 permits from → to: forward
// movement with skips, an abort to OldOnly and a restart out of NewOnly
// are legal, and the one illegal movement is a backward step inside a
// live campaign (to < from, to ≠ OldOnly, from ≠ NewOnly). A nil return
// means the transition is legal; otherwise the error is a
// *TransitionError (or wraps ErrBadPhase for unknown values).
func CanTransition(from, to Phase) error {
	if !from.Known() {
		return fmt.Errorf("%w: %v", ErrBadPhase, from)
	}
	if !to.Known() {
		return fmt.Errorf("%w: %v", ErrBadPhase, to)
	}
	if to < from && to != PhaseOldOnly && from != PhaseNewOnly {
		return &TransitionError{From: from, To: to}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Transition observation

// Cause classifies what drove a transition.
type Cause int

const (
	// CauseManual: an explicit management call (SetPhase).
	CauseManual Cause = iota + 1
	// CausePolicy: the automatic Bayesian switch policy fired.
	CausePolicy
	// CauseTopology: a release-set change forced the phase (removing
	// below two releases collapses the multi-release phases to NewOnly;
	// adding a release to a NewOnly engine restarts Observation).
	CauseTopology
	// CauseRecovery: a restarted mediator restored the phase from its
	// campaign journal (the restart is itself an observable, journaled
	// event, so an audit trail never has an unexplained phase jump).
	CauseRecovery
)

// String implements fmt.Stringer.
func (c Cause) String() string {
	switch c {
	case CauseManual:
		return "manual"
	case CausePolicy:
		return "policy"
	case CauseTopology:
		return "topology"
	case CauseRecovery:
		return "recovery"
	default:
		return fmt.Sprintf("Cause(%d)", int(c))
	}
}

// Transition is one observed phase change of an upgrade unit.
type Transition struct {
	// Unit names the upgrade unit; "" for a standalone engine.
	Unit string
	// From, To are the endpoints of the transition.
	From, To Phase
	// Cause classifies what drove it.
	Cause Cause
	// Demands is the joint-observation count at the transition, when
	// the owner tracks one (the automatic policy reports it; manual
	// transitions may leave it 0).
	Demands int
}

// Hooks is an ordered set of observers of one kind of event — phase
// transitions, release-set changes. The zero value is ready to use;
// methods are safe for concurrent use. Hooks fire after the change has
// been published, outside the owner's write lock; observers must
// tolerate seeing events slightly out of order under concurrent
// management writes, and must not block.
type Hooks[T any] struct {
	mu  sync.Mutex
	fns []func(T)
}

// Add registers an observer.
func (h *Hooks[T]) Add(fn func(T)) {
	if fn == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fns = append(h.fns, fn)
}

// Empty reports whether no observer is registered, so an owner can skip
// working out events nobody would see.
func (h *Hooks[T]) Empty() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.fns) == 0
}

// Fire delivers an event to every observer in registration order. A
// panicking observer is contained: the panic is swallowed and the
// remaining observers still run, so a buggy subscriber (a journal
// writer, an SSE publisher) can neither wedge the change that already
// happened nor starve observers registered after it.
func (h *Hooks[T]) Fire(ev T) {
	h.mu.Lock()
	fns := h.fns
	h.mu.Unlock()
	for _, fn := range fns {
		fireOne(fn, ev)
	}
}

// fireOne isolates one observer call so its panic cannot propagate.
func fireOne[T any](fn func(T), ev T) {
	defer func() { _ = recover() }()
	fn(ev)
}

// Every runs fn every interval on a goroutine the returned stop function
// owns: stop cancels the context an in-flight fn holds — so shutdown
// interrupts a tick instead of waiting it out — and returns once the
// goroutine has exited. stop may be called more than once. Each tick's
// context also expires after one interval.
func Every(interval time.Duration, fn func(ctx context.Context)) (stop func()) {
	//wsu:allow ctxhygiene -- owned background loop, detached from any request by design; the root is cancelled by stop()
	root, cancel := context.WithCancel(context.Background())
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-root.Done():
				return
			case <-ticker.C:
				ctx, cancelTick := context.WithTimeout(root, interval)
				fn(ctx)
				cancelTick()
			}
		}
	}()
	return func() {
		cancel()
		<-finished
	}
}

// ---------------------------------------------------------------------------
// The automatic switch policy (§5.1.1.2)

// SwitchPolicy is the management subsystem's automatic switch rule:
// when Criterion is satisfied on the posterior, the owner advances to
// PhaseNewOnly.
type SwitchPolicy struct {
	// Criterion decides the switch.
	Criterion bayes.Criterion
	// CheckEvery evaluates the criterion every N joint observations
	// (default 50).
	CheckEvery int
	// MinDemands suppresses switching before this many joint
	// observations (default CheckEvery).
	MinDemands int
}

// Normalize applies defaults and validates the policy.
func (p *SwitchPolicy) Normalize() error {
	if p.Criterion == nil {
		return fmt.Errorf("%w: policy without criterion", ErrBadPolicy)
	}
	if p.CheckEvery == 0 {
		p.CheckEvery = 50
	}
	if p.CheckEvery < 1 {
		return fmt.Errorf("%w: check interval %d", ErrBadPolicy, p.CheckEvery)
	}
	if p.MinDemands == 0 {
		p.MinDemands = p.CheckEvery
	}
	return nil
}

// Due reports whether the criterion should be evaluated at n joint
// observations: not before MinDemands, then every CheckEvery-th demand.
func (p *SwitchPolicy) Due(n int) bool {
	return n >= p.MinDemands && n%p.CheckEvery == 0
}

// Inference computes the white-box posterior of a joint record.
// *bayes.WhiteBox is one; the engine passes its memoised front, so the
// policy check and the response that publishes the same counts share a
// posterior.
type Inference interface {
	Posterior(bayes.JointCounts) (*bayes.Posterior, error)
}

// ShouldSwitch evaluates the criterion on the posterior inferred from
// counts. It reports false without error when the evaluation is not
// due yet; inference failures also report false (a posterior the
// engine cannot compute is never grounds to switch).
func (p *SwitchPolicy) ShouldSwitch(counts bayes.JointCounts, inference Inference) bool {
	if inference == nil || !p.Due(counts.N) {
		return false
	}
	post, err := inference.Posterior(counts)
	if err != nil {
		return false
	}
	return p.Criterion.Satisfied(post)
}
