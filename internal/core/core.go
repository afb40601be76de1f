// Package core is the paper's primary contribution: the middleware for
// dependable online upgrade of a Web Service (§4).
//
// The Engine sits behind the service's published WSDL interface and keeps
// several releases of the service operational at once. For every consumer
// request it:
//
//  1. intercepts the SOAP message and fans it out to the deployed
//     releases (all of them, a quorum, or sequentially — the §4.2
//     operating modes);
//  2. collects the responses within a timeout, classifying faults,
//     timeouts and transport errors as evident failures;
//  3. adjudicates a response for the consumer (§5.2.1 rules by default,
//     majority or fastest-valid as alternatives);
//  4. hands every release's behaviour to the monitoring subsystem
//     (§4.3): availability, execution time, judged correctness, and the
//     pairwise (old, new) outcome of Table 1;
//  5. lets the management subsystem (§4.4) evaluate the switch policy —
//     a Bayesian confidence criterion over the accumulated observations —
//     and advance the upgrade lifecycle when the new release has earned
//     enough confidence.
//
// The engine is a thin composition of the middleware's layers:
//
//   - internal/dispatch owns the fan-out mechanics — deadlines derived
//     from the consumer's request context via pooled timers, fan-out
//     goroutines, reply pooling, the single-target fast path, and the
//     §4.2 operating modes;
//   - internal/lifecycle owns the §4.1 phase machine — transition
//     guards, hooks, and the Bayesian switch policy;
//   - internal/monitor and internal/bayes own observation and inference.
//
// What the engine adds is the composition itself. This file is the path
// every demand takes — ServeHTTP/ServePath → dispatch → respond, with
// recordOutcome → evaluatePolicy as dispatch's outcome hook. Around it:
// engine.go (configuration, construction, the HTTP surface), state.go
// (the published state, the rule for what each phase serves, the online
// mutators and release health marks), confidence.go (the §6.2
// confidence-publishing mechanisms — a dedicated OperationConf operation,
// backward-compatible "<op>Conf" variants, per-response confidence
// headers, the extended /wsdl — and the registry entry) and campaign.go
// (journal capture and recovery). Hosting — journal files, the health loop, a listener — is
// internal/fleet's. The lifecycle phases follow §3.3/§4.2: OldOnly (new
// release deployed but unused) → Observation (both run back-to-back, the
// old release's response is delivered) → Parallel (adjudicated
// 1-out-of-2 delivery) → NewOnly (switched). Releases can be added and
// removed online.
package core

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/bayes"
	"wsupgrade/internal/dispatch"
	"wsupgrade/internal/httpx"
	"wsupgrade/internal/lifecycle"
	"wsupgrade/internal/monitor"
	"wsupgrade/internal/pool"
	"wsupgrade/internal/protocol"
)

// AdjudicatorHeader lets a consumer select the adjudication mechanism for
// its own requests (§6.1: "users can explicitly specify the adjudication
// mechanism they would like applied to their own requests"). Valid
// values: "random-valid", "majority", "fastest-valid". Unknown values are
// ignored in favour of the engine default.
const AdjudicatorHeader = "X-Wsupgrade-Adjudicator"

// ConfidenceHeader carries the published confidence (§6.2) on
// responses of units whose codec has no native header representation
// (the SOAP codec publishes a conf:Confidence SOAP header instead).
const ConfidenceHeader = "X-Wsupgrade-Confidence"

// maxRequestBytes bounds consumer request bodies (matches the SOAP
// message limit and the release-response cap).
const maxRequestBytes = 10 << 20

// ServeHTTP intercepts one consumer request. The codec classifies the
// demand on its own hot path — soap.Decode's zero-copy envelope scan
// (which checks the whole structural tag tree and declines unusual
// envelopes to an encoding/xml parse), the JSON codec's URL-path route
// and validity check. The residual gap is the SOAP codec's: a message
// with content-level malformation only a full parse detects can
// classify clean and be rejected by the releases instead of locally;
// those faults reach the consumer as faults — the same monitoring
// exposure an unknown operation name has always had.
func (e *Engine) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	e.ServePath(w, r, r.URL.Path)
}

// ServePath is ServeHTTP for a router that has already consumed a
// prefix of the request path: path is the remainder the engine routes
// on, and r.URL is left alone — so hosting the engine under a prefix
// costs no request clone.
func (e *Engine) ServePath(w http.ResponseWriter, r *http.Request, path string) {
	if r.Method != http.MethodPost {
		e.codec.WriteRejection(w, http.StatusMethodNotAllowed, e.postOnlyMsg)
		return
	}
	// A Content-Type that contradicts the unit's protocol is rejected
	// before the body is read: a SOAP envelope posted to a JSON unit
	// (or vice versa) is a routing mistake, not a malformed demand, and
	// 415 says so where a decode fault would mislead.
	if ct := r.Header.Get("Content-Type"); !e.codec.Accepts(ct) {
		e.codec.WriteRejection(w, http.StatusUnsupportedMediaType, e.badTypeMsg)
		return
	}
	envBuf, err := httpx.ReadBoundedBuf(r.Body, r.ContentLength, maxRequestBytes)
	if err != nil {
		envBuf.Release() // nil on error; Release is nil-safe
		e.codec.WriteError(w, "", protocol.ClientError(fmt.Sprintf("reading request: %v", err)))
		return
	}
	req, err := e.codec.DecodeRequest(path, envBuf.B)
	if err != nil {
		envBuf.Release()
		e.codec.WriteError(w, "", err)
		return
	}
	operation := req.Op

	if e.cfg.EnableConfOps {
		if req.Element == e.confQueryElement {
			e.serveConfidenceQuery(w, envBuf)
			return
		}
		if base, ok := e.confVariantBase(operation); ok {
			e.serveConfVariant(w, r, envBuf, base)
			return
		}
	}
	e.proxy(w, r, envBuf, operation)
}

// headerAdjudicator returns the consumer's explicit per-request
// adjudicator choice, if any.
func headerAdjudicator(r *http.Request) (adjudicate.Adjudicator, bool) {
	if r == nil {
		return nil, false
	}
	switch r.Header.Get(AdjudicatorHeader) {
	case "random-valid":
		return adjudicate.RandomValid{}, true
	case "majority":
		return adjudicate.Majority{}, true
	case "fastest-valid":
		return adjudicate.FastestValid{}, true
	default:
		return nil, false
	}
}

// proxy is the main interception path. It takes ownership of envBuf —
// the pooled buffer holding the consumer's request envelope — and hands
// it on to the dispatch layer, which recycles it once no fan-out
// goroutine can still read it.
//
//wsu:owns envBuf
func (e *Engine) proxy(w http.ResponseWriter, r *http.Request, envBuf *pool.Buf, operation string) {
	override, _ := headerAdjudicator(r)
	winner, adjErr := e.dispatch(r.Context(), envBuf, operation, override)
	e.respond(w, operation, winner, adjErr)
}

// respond writes the adjudicated outcome to the consumer and discharges
// the winner's pooled-body reference once the body has been written.
func (e *Engine) respond(w http.ResponseWriter, operation string, winner adjudicate.Reply, adjErr error) {
	if adjErr != nil {
		winner.ReleaseBody() // nil-safe: fault outcomes carry no pooled body
		if !protocol.IsFault(adjErr) && errors.Is(adjErr, adjudicate.ErrNoResponses) {
			adjErr = errUnavailable
		}
		e.codec.WriteError(w, operation, adjErr)
		return
	}
	h := w.Header()
	var confidence protocol.HeaderItem
	if e.cfg.PublishHeader {
		if conf, err := e.publishedConfidence(operation); err == nil {
			if e.confOps != nil {
				confidence = e.confOps.ConfidenceHeader(operation, conf)
			} else {
				// No native header representation (JSON): publish over
				// a plain HTTP header instead.
				h[ConfidenceHeader] = []string{strconv.FormatFloat(conf, 'f', 6, 64)}
			}
		}
	}
	// The headers are assigned as value slices (keys in canonical form),
	// precomputed and shared where the value is fixed, instead of
	// Header.Set, which canonicalizes the key and allocates a fresh
	// []string per call.
	h["Content-Type"] = e.ctHeader
	if winner.Release != "" {
		if v, ok := e.state.Load().winnerHdr[winner.Release]; ok {
			h["X-Wsupgrade-Winner"] = v
		} else {
			h.Set("X-Wsupgrade-Winner", winner.Release)
		}
	}
	// The first Write sends the 200; until then the codec may declare a length.
	if confidence != nil {
		headers := append(headerScratch.Get(1), confidence)
		_, _ = e.codec.WriteBody(w, winner.Body, headers...)
		headers[0] = nil
		headerScratch.Put(headers)
	} else {
		_, _ = e.codec.WriteBody(w, winner.Body)
	}
	winner.ReleaseBody()
}

// headerScratch recycles respond's one-item header list (the codec's
// WriteBody copies the items out and retains nothing).
var headerScratch pool.Slice[protocol.HeaderItem]

// errUnavailable is the consumer-facing outcome when no release
// produced anything deliverable (the paper's unavailability case).
var errUnavailable = protocol.ServerError("Web Service unavailable")

// dispatch hands the fan-out to the dispatch layer with the phase's
// targets and delivery authority, both precomputed at publication. The
// dispatch deadline derives from the consumer's request context: a
// disconnected client cancels its in-flight fan-out (and the aborted
// outcome is not charged to the releases), while early-delivery modes
// detach after responding so monitoring still collects every release's
// behaviour.
//
// dispatch takes ownership of envBuf, the pooled buffer holding the
// request envelope; ownership transfers into dispatch.Request.EnvelopeBuf
// and the dispatcher's completion recycles it.
//
//wsu:owns envBuf
//wsu:allow poolcheck -- envBuf's ownership transfers into dispatch.Request.EnvelopeBuf; the dispatcher's completion recycles it
func (e *Engine) dispatch(ctx context.Context, envBuf *pool.Buf, operation string, override adjudicate.Adjudicator) (adjudicate.Reply, error) {
	st := e.state.Load()
	rule := st.deliver
	if override != nil {
		rule = deliveryRule(st.phase, st.releases, override)
	}
	return e.disp.Do(dispatch.Request{
		Parent:      ctx,
		Targets:     st.targets,
		Mode:        st.mode,
		Quorum:      st.quorum,
		Timeout:     st.timeout,
		Operation:   operation,
		Envelope:    envBuf.B,
		EnvelopeBuf: envBuf,
		Deliver:     rule,
		Oldest:      st.releases[0],
		Newest:      st.releases[len(st.releases)-1],
	})
}

// obsSlices recycles recordOutcome's observation scratch (monitor.Note
// does not retain rec.Releases past its return), and verdictScratch its
// oracle verdict buffers (JudgeInto writes into the caller's buffer and
// retains nothing); see pool.Slice for the zero-allocation cycle.
var (
	obsSlices      pool.Slice[monitor.Observation]
	verdictScratch pool.Slice[bool]
)

// recordOutcome feeds the monitoring subsystem and evaluates the switch
// policy. It is the dispatcher's outcome hook and may run on a
// background collector after delivery. A fan-out aborted by its own
// consumer is not release behaviour and is not recorded.
func (e *Engine) recordOutcome(out dispatch.Outcome) {
	if out.ConsumerGone {
		return
	}
	failed := e.oracle.JudgeInto(verdictScratch.Get(len(out.Replies)), out.Operation, out.Replies)
	rec := monitor.Record{
		Time:      e.now(),
		Operation: out.Operation,
		Winner:    out.Winner.Release,
		Releases:  obsSlices.Get(len(out.Replies)),
	}
	oldIdx, newIdx := -1, -1
	for i := range out.Replies {
		r := &out.Replies[i]
		if r.Release == "" {
			continue
		}
		var id monitor.ReleaseID
		if i < len(out.Targets) && out.Targets[i].Version == r.Release {
			id = monitor.ReleaseID(out.Targets[i].MonRef)
		}
		rec.Releases = append(rec.Releases, monitor.Observation{
			Release:   r.Release,
			ID:        id,
			Responded: dispatch.Responded(*r),
			Evident:   !r.Valid(),
			Judged:    true,
			Failed:    failed[i],
			Latency:   r.Latency,
		})
		if r.Release == out.Oldest.Version {
			oldIdx = i
		}
		if r.Release == out.Newest.Version {
			newIdx = i
		}
	}
	if oldIdx >= 0 && newIdx >= 0 && out.Oldest.Version != out.Newest.Version {
		rec.Joint = bayes.Outcome(failed[oldIdx], failed[newIdx])
	}
	e.mon.Note(rec)
	obsSlices.Put(rec.Releases)
	verdictScratch.Put(failed)

	if e.cfg.Policy != nil && rec.Joint != 0 {
		e.evaluatePolicy()
	}
}

// evaluatePolicy runs the Bayesian switch criterion (§4.4, §5.1.1.2).
func (e *Engine) evaluatePolicy() {
	e.policyMu.Lock()
	defer e.policyMu.Unlock()

	if e.state.Load().phase == PhaseNewOnly {
		return
	}
	counts := e.mon.Joint()
	if !e.cfg.Policy.ShouldSwitch(counts, e.inference) {
		return
	}
	_ = e.updateState(lifecycle.CausePolicy, func(s *engineState) error {
		if s.phase != PhaseNewOnly {
			s.phase = PhaseNewOnly
			s.switchedAt = counts.N
		}
		return nil
	})
}
