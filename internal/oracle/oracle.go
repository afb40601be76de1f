// Package oracle implements the live failure-detection mechanisms the
// monitoring subsystem uses to judge release responses (§4.3, §5.1.1.3).
//
// Evident failures (faults, timeouts, transport errors) need no oracle;
// detecting *non-evident* failures requires application-level redundancy:
//
//   - Reference: the paper's §3.1 technique — "use the old release as an
//     'oracle' in judging if WS 1.1 returns correct responses": a valid
//     response disagreeing with the reference release's is judged failed.
//   - BackToBack: pure comparison — when the releases disagree, both are
//     suspected; coincident identical failures are undetectable. Unlike
//     the §5.1.1.3 back-to-back detector, it charges a discordant demand
//     to both releases.
//   - Header: a ground-truth oracle reading the fault-injection marker the
//     internal/service runtime attaches; only the test harness has it.
//   - WithOmission wraps any oracle with the paper's omission-failure
//     imperfection: each detected failure is missed with probability
//     Pomit.
//
// All oracles return per-reply failure verdicts aligned with the replies
// slice, from which the pairwise Table 1 outcome is derived.
//
// The judge path runs once per intercepted demand, so it is built for the
// dispatch hot path: JudgeInto writes verdicts into a caller-owned buffer
// and every oracle is allocation-free in steady state (byte-identical
// response comparisons never parse; differing responses are compared as
// canonical byte streams, up to the first byte that differs).
package oracle

import (
	"errors"
	"fmt"
	"sync"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/protocol"
	"wsupgrade/internal/protocol/soapcodec"
	"wsupgrade/internal/xrand"
)

// InjectionHeader is the response header with which the fault-injecting
// service runtime labels each response's true outcome kind. Only the
// ground-truth Header oracle reads it.
const InjectionHeader = "X-Wsupgrade-Injected"

// ErrBadOracle reports an invalid oracle configuration.
var ErrBadOracle = errors.New("oracle: bad configuration")

// Oracle judges which replies failed. Implementations must be safe for
// concurrent use and must not mutate the replies.
type Oracle interface {
	// JudgeInto returns failed[i] == true when replies[i] is judged to
	// have failed (evidently or not). The verdicts are written into dst,
	// which backs the result when cap(dst) >= len(replies) (its length
	// is ignored; a fresh slice is grown otherwise — so a nil dst simply
	// allocates), and the returned slice has len == len(replies). The
	// caller owns dst before and after the call: oracles do not retain
	// it, so callers may pool it.
	JudgeInto(dst []bool, operation string, replies []adjudicate.Reply) []bool
	// Name identifies the oracle in reports.
	Name() string
}

// verdicts returns a zeroed verdict slice of length n backed by dst when
// its capacity suffices.
func verdicts(dst []bool, n int) []bool {
	if cap(dst) < n {
		return make([]bool, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = false
	}
	return dst
}

// FaultOnly detects evident failures only: a reply failed iff it carries
// an error (fault, timeout, transport). Non-evident failures pass
// undetected — the baseline detection level without redundancy.
type FaultOnly struct{}

var _ Oracle = FaultOnly{}

// JudgeInto implements Oracle.
//
//wsu:noalloc
func (FaultOnly) JudgeInto(dst []bool, operation string, replies []adjudicate.Reply) []bool {
	//wsu:allow noalloc -- verdict-slice grow path; pooled callers pass adequate capacity
	failed := verdicts(dst, len(replies))
	for i, r := range replies {
		failed[i] = !r.Valid()
	}
	return failed
}

// Name implements Oracle.
func (FaultOnly) Name() string { return "fault-only" }

// Reference trusts the named release: any valid reply whose canonical
// payload differs from the reference's valid payload is judged failed.
// When the reference itself failed evidently, only evident failures are
// detected on the others (no basis for comparison).
type Reference struct {
	// Release is the trusted release's version string.
	Release string
	// Codec supplies canonical payload equivalence; nil means the SOAP
	// codec (XML canonicalization).
	Codec protocol.Codec
}

var _ Oracle = Reference{}

// JudgeInto implements Oracle.
//
//wsu:noalloc
func (o Reference) JudgeInto(dst []bool, operation string, replies []adjudicate.Reply) []bool {
	//wsu:allow noalloc -- verdict-slice grow path; pooled callers pass adequate capacity
	failed := verdicts(dst, len(replies))
	var ref *adjudicate.Reply
	for i := range replies {
		if replies[i].Release == o.Release && replies[i].Valid() {
			ref = &replies[i]
			break
		}
	}
	for i := range replies {
		r := &replies[i]
		switch {
		case !r.Valid():
			failed[i] = true
		case ref != nil && r.Release != o.Release && !payloadEqual(o.Codec, r.Body, ref.Body):
			failed[i] = true
		}
	}
	return failed
}

// Name implements Oracle.
func (o Reference) Name() string { return "reference(" + o.Release + ")" }

// BackToBack judges by comparison only: with two valid replies that
// disagree, both are flagged as suspected failures (the middleware cannot
// tell which is wrong without further diversity); identical replies pass,
// so coincident identical failures are recorded as joint successes. It is
// not the §5.1.1.3 back-to-back detector of Table 2
// (bayes.BackToBackDetector), which records a discordant demand against
// the release that failed only: fed this oracle's record, the switch
// criteria are far slower or never met (DESIGN.md §1, "oracle.BackToBack
// is not Table 2's detector").
type BackToBack struct {
	// Codec supplies canonical payload equivalence; nil means the SOAP
	// codec. The zero value is the historical SOAP back-to-back oracle.
	Codec protocol.Codec
}

var _ Oracle = BackToBack{}

// JudgeInto implements Oracle.
//
//wsu:noalloc
func (o BackToBack) JudgeInto(dst []bool, operation string, replies []adjudicate.Reply) []bool {
	//wsu:allow noalloc -- verdict-slice grow path; pooled callers pass adequate capacity
	failed := verdicts(dst, len(replies))
	first := -1 // first valid reply: the comparison base
	nvalid := 0
	for i := range replies {
		if replies[i].Valid() {
			if first < 0 {
				first = i
			}
			nvalid++
		} else {
			failed[i] = true
		}
	}
	if nvalid < 2 {
		return failed
	}
	base := replies[first].Body
	agree := true
	for i := first + 1; i < len(replies); i++ {
		if replies[i].Valid() && !payloadEqual(o.Codec, base, replies[i].Body) {
			agree = false
			break
		}
	}
	if !agree {
		for i := range replies {
			if replies[i].Valid() {
				failed[i] = true
			}
		}
	}
	return failed
}

// Name implements Oracle.
func (BackToBack) Name() string { return "back-to-back" }

// payloadEqual compares two reply payloads through the oracle's codec,
// defaulting to the SOAP codec so zero-value oracles keep their
// historical behaviour.
//
//wsu:noalloc
func payloadEqual(c protocol.Codec, a, b []byte) bool {
	if c == nil {
		c = soapcodec.Default
	}
	return c.Equal(a, b)
}

// Header is the ground-truth oracle of the test harness: it reads the
// fault-injection marker attached by the internal/service runtime. A
// reply failed iff it failed evidently or carries an "ER"/"NER" marker.
type Header struct{}

var _ Oracle = Header{}

// JudgeInto implements Oracle.
//
//wsu:noalloc
func (Header) JudgeInto(dst []bool, operation string, replies []adjudicate.Reply) []bool {
	//wsu:allow noalloc -- verdict-slice grow path; pooled callers pass adequate capacity
	failed := verdicts(dst, len(replies))
	for i := range replies {
		r := &replies[i]
		if !r.Valid() {
			failed[i] = true
			continue
		}
		switch r.Header.Get(InjectionHeader) {
		case "ER", "NER":
			failed[i] = true
		}
	}
	return failed
}

// Name implements Oracle.
func (Header) Name() string { return "header-truth" }

// WithOmission wraps an oracle with §5.1.1.3 omission imperfection: each
// failure verdict is independently flipped to success with probability
// Pomit. Construct with NewWithOmission.
//
// Omission draws come from a pool of deterministic generators split off
// the seeded master — one pool Get per judgment instead of a
// wrapper-wide mutex, so concurrent dispatches never serialize on the
// oracle (the same determinism contract as adjudication tie-breaking:
// reproducible streams, not a reproducible interleaving).
type WithOmission struct {
	inner Oracle
	pomit float64

	// rngMaster only seeds new pool members; rngMu guards the split.
	rngMu     sync.Mutex
	rngMaster *xrand.Rand
	rngPool   sync.Pool
}

var _ Oracle = (*WithOmission)(nil)

// NewWithOmission wraps inner with the given omission probability.
func NewWithOmission(inner Oracle, pomit float64, rng *xrand.Rand) (*WithOmission, error) {
	if inner == nil {
		return nil, fmt.Errorf("%w: nil inner oracle", ErrBadOracle)
	}
	if pomit < 0 || pomit > 1 {
		return nil, fmt.Errorf("%w: pomit %v", ErrBadOracle, pomit)
	}
	if rng == nil {
		return nil, fmt.Errorf("%w: nil rng", ErrBadOracle)
	}
	return &WithOmission{inner: inner, pomit: pomit, rngMaster: rng}, nil
}

// getRNG hands one generator to a judgment. Generators are pooled; a
// fresh one is split off the seeded master only when the pool is empty.
//
//wsu:owns return
func (o *WithOmission) getRNG() *xrand.Rand {
	if r, ok := o.rngPool.Get().(*xrand.Rand); ok {
		return r
	}
	o.rngMu.Lock()
	defer o.rngMu.Unlock()
	return o.rngMaster.Split()
}

//wsu:owns r
func (o *WithOmission) putRNG(r *xrand.Rand) { o.rngPool.Put(r) }

// JudgeInto implements Oracle.
//
//wsu:noalloc
func (o *WithOmission) JudgeInto(dst []bool, operation string, replies []adjudicate.Reply) []bool {
	failed := o.inner.JudgeInto(dst, operation, replies)
	rng := o.getRNG()
	for i := range failed {
		if failed[i] && rng.Bool(o.pomit) {
			failed[i] = false
		}
	}
	o.putRNG(rng)
	return failed
}

// Name implements Oracle.
func (o *WithOmission) Name() string {
	return fmt.Sprintf("omission(%.2f, %s)", o.pomit, o.inner.Name())
}
