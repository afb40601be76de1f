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
//
// All oracles return per-reply failure verdicts aligned with the replies
// slice, from which the pairwise Table 1 outcome is derived.
//
// The judge path runs once per intercepted demand, so it is built for the
// dispatch hot path: JudgeInto writes verdicts into a caller-owned buffer
// and every oracle is allocation-free in steady state (a twin's payload
// is its sibling's own slice and is not read; byte-identical response
// comparisons never parse; differing responses are compared as
// canonical streams, up to the first evidence that they differ).
package oracle

import (
	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/protocol"
	"wsupgrade/internal/protocol/soapcodec"
)

// InjectionHeader is the response header with which the fault-injecting
// service runtime labels each response's true outcome kind. Only the
// ground-truth Header oracle reads it.
const InjectionHeader = "X-Wsupgrade-Injected"

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

// BackToBack judges by comparison only: with two valid replies that
// disagree, both are flagged as suspected failures (the middleware cannot
// tell which is wrong without further diversity); identical replies pass,
// so coincident identical failures are recorded as joint successes. It is
// not the §5.1.1.3 back-to-back detector of Table 2
// (bayes.BackToBackDetector), which records a discordant demand against
// the release that failed only: fed this oracle's record, the switch
// criteria are far slower or never met (DECISIONS.md,
// "oracle.BackToBack is not Table 2's detector").
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

// payloadEqual compares two reply payloads through the oracle's codec,
// defaulting to the SOAP codec so zero-value oracles keep their
// historical behaviour. Two payloads that are one slice — a twin's and
// the sibling whose bytes it repeats (dispatch) — are equal without
// being read.
//
//wsu:noalloc
func payloadEqual(c protocol.Codec, a, b []byte) bool {
	if len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0]) {
		return true
	}
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
