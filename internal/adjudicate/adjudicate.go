// Package adjudicate implements the response adjudication of the managed
// upgrade middleware (§4.2, §5.2.1): deciding which of the responses
// collected from the concurrently running releases is returned to the
// consumer of the Web Service.
//
// It works on live responses (payload bytes, error, latency) as
// collected by the middleware from real release endpoints, and offers
// the adjudication strategies discussed in §4.2 and §6.1: the paper's
// random-among-valid rule, majority voting, and fastest-valid.
package adjudicate

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"wsupgrade/internal/httpx"
	"wsupgrade/internal/pool"
	"wsupgrade/internal/xrand"
)

// Sentinel adjudication failures. Both are "evident" failures of the
// composite service: the consumer receives an exception rather than a
// wrong answer.
var (
	// ErrNoResponses corresponds to the §5.2.1 rule "if no response has
	// been collected the middleware returns 'Web Service unavailable'".
	ErrNoResponses = errors.New("adjudicate: no responses collected within timeout")
	// ErrAllEvident corresponds to "if all collected responses are
	// evidently incorrect then the middleware raises an exception".
	ErrAllEvident = errors.New("adjudicate: all collected responses evidently incorrect")
)

// Reply is one release's response to an intercepted consumer request.
type Reply struct {
	// Release identifies the responding release (its version string).
	Release string
	// Body is the response payload. It is meaningful only when Err is nil.
	Body []byte
	// Err, when non-nil, marks an evident failure: a transport error, a
	// timeout, or a SOAP fault raised by the release.
	Err error
	// Latency is the observed execution time of the release.
	Latency time.Duration
	// Header carries transport metadata of the exchange (e.g. the
	// release's version header, or the fault-injection marker the test
	// harness's ground-truth oracle reads). May be empty. Like Body, it
	// aliases Buf.
	Header httpx.Header
	// Buf, when non-nil, is the pooled buffer Body and Header alias.
	// Ownership belongs to the dispatch layer, which releases it once
	// the reply has been judged, recorded and (for the winner) written;
	// adjudicators must neither retain nor release it. A winner handed
	// to a consumer carries one extra reference, discharged with
	// ReleaseBody after the response is written.
	Buf *pool.Buf
}

// Valid reports whether the reply is not an evident failure.
func (r Reply) Valid() bool { return r.Err == nil }

// ReleaseBody discharges the reply's reference to its pooled body
// buffer and drops the aliases; Body and Header must not be read
// afterwards. Safe on replies with no pooled body.
func (r *Reply) ReleaseBody() {
	r.Buf.Release()
	r.Buf = nil
	r.Body = nil
	r.Header = nil
}

// Adjudicator selects the response returned to the consumer from the
// replies collected within the middleware's timeout.
//
// Implementations must be deterministic given the rng stream and must not
// retain or mutate the replies slice.
type Adjudicator interface {
	// Adjudicate returns the winning reply, or an error when no valid
	// response can be produced (ErrNoResponses, ErrAllEvident).
	Adjudicate(replies []Reply, rng *xrand.Rand) (Reply, error)
	// Name identifies the strategy in logs and reports.
	Name() string
}

// RandomValid is the paper's §5.2.1 strategy: any valid reply, chosen
// uniformly at random.
type RandomValid struct{}

var _ Adjudicator = RandomValid{}

// Adjudicate implements Adjudicator.
//
//wsu:noalloc
func (RandomValid) Adjudicate(replies []Reply, rng *xrand.Rand) (Reply, error) {
	nvalid := countValid(replies)
	switch {
	case len(replies) == 0:
		return Reply{}, ErrNoResponses
	case nvalid == 0:
		//wsu:allow noalloc -- error construction on the all-evident path, off the hot path
		return Reply{}, fmt.Errorf("%w: %d replies", ErrAllEvident, len(replies))
	}
	pick := rng.Intn(nvalid)
	for i := range replies {
		if replies[i].Valid() {
			if pick == 0 {
				return replies[i], nil
			}
			pick--
		}
	}
	return Reply{}, ErrNoResponses // unreachable
}

// Name implements Adjudicator.
func (RandomValid) Name() string { return "random-valid" }

// Majority groups the valid replies by exact payload equality and returns
// a representative of the largest group; ties are broken uniformly at
// random among the tied groups. With two releases this detects
// disagreement (group sizes 1+1) but cannot out-vote it, so a tie between
// two singleton groups falls back to a random pick — the natural
// degradation of voting at redundancy level two (§4.2).
type Majority struct{}

var _ Adjudicator = Majority{}

// group is Majority's payload-equality bucket. The scratch slices are
// pooled (see groupScratch): voting allocates nothing in steady state.
type group struct {
	rep  Reply
	size int
}

// groupScratch recycles Majority's per-call group buckets. A slice is
// recycled with every element zeroed so pooled buckets never retain a
// reply's body or header past the call.
var groupScratch pool.Slice[group]

// Adjudicate implements Adjudicator.
//
//wsu:noalloc
func (Majority) Adjudicate(replies []Reply, rng *xrand.Rand) (Reply, error) {
	nvalid := countValid(replies)
	switch {
	case len(replies) == 0:
		return Reply{}, ErrNoResponses
	case nvalid == 0:
		//wsu:allow noalloc -- error construction on the all-evident path, off the hot path
		return Reply{}, fmt.Errorf("%w: %d replies", ErrAllEvident, len(replies))
	}
	groups := groupScratch.Get(len(replies))
next:
	for i := range replies {
		if !replies[i].Valid() {
			continue
		}
		for j := range groups {
			if bytes.Equal(groups[j].rep.Body, replies[i].Body) {
				groups[j].size++
				continue next
			}
		}
		groups = append(groups, group{rep: replies[i], size: 1})
	}
	best := 0
	for i := range groups {
		if groups[i].size > best {
			best = groups[i].size
		}
	}
	tied := 0
	for i := range groups {
		if groups[i].size == best {
			tied++
		}
	}
	pick := rng.Intn(tied)
	var winner Reply
	for i := range groups {
		if groups[i].size == best {
			if pick == 0 {
				winner = groups[i].rep
				break
			}
			pick--
		}
	}
	for i := range groups {
		groups[i] = group{} // drop body/header references before pooling
	}
	groupScratch.Put(groups)
	return winner, nil
}

// Name implements Adjudicator.
func (Majority) Name() string { return "majority" }

// FastestValid returns the valid reply with the lowest latency — the
// paper's "parallel execution for maximum responsiveness" mode (§4.2,
// mode 2). Latency ties break deterministically by release name.
type FastestValid struct{}

var _ Adjudicator = FastestValid{}

// Adjudicate implements Adjudicator.
//
//wsu:noalloc
func (FastestValid) Adjudicate(replies []Reply, rng *xrand.Rand) (Reply, error) {
	// A single min-scan: only the fastest reply is delivered, so sorting
	// (and the valid-subset scratch it needed) is wasted work.
	best := -1
	for i := range replies {
		if !replies[i].Valid() {
			continue
		}
		if best < 0 || faster(&replies[i], &replies[best]) {
			best = i
		}
	}
	switch {
	case len(replies) == 0:
		return Reply{}, ErrNoResponses
	case best < 0:
		//wsu:allow noalloc -- error construction on the all-evident path, off the hot path
		return Reply{}, fmt.Errorf("%w: %d replies", ErrAllEvident, len(replies))
	}
	return replies[best], nil
}

// faster orders replies by latency, ties broken deterministically by
// release name.
func faster(a, b *Reply) bool {
	if a.Latency != b.Latency {
		return a.Latency < b.Latency
	}
	return a.Release < b.Release
}

// Name implements Adjudicator.
func (FastestValid) Name() string { return "fastest-valid" }

// Preferred returns the reply of the named release when it is valid and
// falls back to the given Adjudicator otherwise. The manager uses it for
// the "old only" and "new only" lifecycle phases in which one release is
// authoritative while others are merely observed.
type Preferred struct {
	Release  string
	Fallback Adjudicator
}

var _ Adjudicator = Preferred{}

// Adjudicate implements Adjudicator.
//
//wsu:noalloc
func (p Preferred) Adjudicate(replies []Reply, rng *xrand.Rand) (Reply, error) {
	for _, r := range replies {
		if r.Release == p.Release && r.Valid() {
			return r, nil
		}
	}
	fb := p.Fallback
	if fb == nil {
		fb = defaultFallback
	}
	return fb.Adjudicate(replies, rng)
}

// defaultFallback is preboxed at package level: converting RandomValid{}
// to the interface inside Adjudicate would allocate on every preferred
// miss.
var defaultFallback Adjudicator = RandomValid{}

// Name implements Adjudicator.
func (p Preferred) Name() string { return "preferred(" + p.Release + ")" }

func countValid(replies []Reply) int {
	n := 0
	for i := range replies {
		if replies[i].Valid() {
			n++
		}
	}
	return n
}
