package core

import (
	"fmt"
	"hash/maphash"
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/pool"
	"wsupgrade/internal/stats"
	"wsupgrade/internal/wsdl"
)

// This file is the engine's §6.2 surface: the confidence report and the
// three ways it reaches consumers (response header, dedicated query
// operation, "<op>Conf" variants), over a memo of recent posteriors.

// memoInference fronts the engine's white-box model with a memo of the
// posteriors it computed last. A posterior is a pure function of the
// model, which never changes after New, and of the joint counts it
// conditions on, and nothing in this package writes to one after it is
// computed — so a memoised posterior whose counts equal the queried
// counts is the answer, with no expiry. That covers every query made
// while the evidence stands still: per-demand publication in the
// old-only and new-only phases (no joint record is made there),
// confidence queries, status polls, and the policy check on the counts
// the same demand's response then publishes. When the evidence has
// moved, the operation's last posterior is the predecessor the model
// advances from (bayes.PosteriorFrom), so a record that grows demand by
// demand costs its frontier, not the grid.
type memoInference struct {
	model *bayes.WhiteBox
	// memo holds the last posterior computed for each operation, at
	// the slot its name hashes to; operations that collide only evict
	// one another. Lookups match on counts alone, across all slots.
	memo [8]atomic.Pointer[bayes.Posterior]
}

var memoSeed = maphash.MakeSeed()

// posterior returns the posterior for counts, the record of operation
// ("" = all operations pooled).
func (m *memoInference) posterior(operation string, counts bayes.JointCounts) (*bayes.Posterior, error) {
	for i := range m.memo {
		if post := m.memo[i].Load(); post != nil && post.Counts == counts {
			return post, nil
		}
	}
	slot := &m.memo[maphash.String(memoSeed, operation)%uint64(len(m.memo))]
	post, err := m.model.PosteriorFrom(slot.Load(), counts)
	if err != nil {
		return nil, err
	}
	slot.Store(post)
	return post, nil
}

// Posterior implements lifecycle.Inference on the pooled record.
func (m *memoInference) Posterior(counts bayes.JointCounts) (*bayes.Posterior, error) {
	return m.posterior("", counts)
}

// ConfidenceReport is a snapshot of the engine's confidence in the
// release pair for one operation ("" = all operations pooled).
type ConfidenceReport struct {
	// Operation is the queried operation ("" for the pooled record).
	Operation string
	// Target is the pfd target T of the confidences.
	Target float64
	// Old is P(pfd_old ≤ T | observations).
	Old float64
	// New is P(pfd_new ≤ T | observations).
	New float64
	// Published is the single value published to consumers: the
	// confidence of what they are currently served (conservatively the
	// smaller of the two while both releases' responses can be
	// delivered).
	Published float64
	// OldP99 and NewP99 are the 99% pfd percentiles (eq. 6).
	OldP99, NewP99 float64
	// Demands is the number of joint observations behind the report.
	Demands int
}

// posteriorFor is the posterior of one operation's joint record;
// operation "" pools all operations.
func (e *Engine) posteriorFor(operation string) (*bayes.Posterior, error) {
	if e.inference == nil {
		return nil, ErrNoInference
	}
	var counts bayes.JointCounts
	if operation == "" {
		counts = e.mon.Joint()
	} else {
		counts = e.mon.JointFor(operation)
	}
	post, err := e.inference.posterior(operation, counts)
	if err != nil {
		return nil, fmt.Errorf("core: computing posterior: %w", err)
	}
	return post, nil
}

// Confidence computes the report for one operation; operation "" pools
// all operations.
func (e *Engine) Confidence(operation string) (ConfidenceReport, error) {
	post, err := e.posteriorFor(operation)
	if err != nil {
		return ConfidenceReport{}, err
	}
	return ConfidenceReport{
		Operation: operation,
		Target:    e.cfg.ConfidenceTarget,
		Old:       post.ConfidenceA(e.cfg.ConfidenceTarget),
		New:       post.ConfidenceB(e.cfg.ConfidenceTarget),
		OldP99:    post.PercentileA(0.99),
		NewP99:    post.PercentileB(0.99),
		Published: e.published(post),
		Demands:   post.Counts.N,
	}, nil
}

// published is the one value consumers are told, the confidence in what
// they are currently served: the old release's marginal (A) while its
// responses are delivered (old-only, observation), the new release's (B)
// in new-only, and conservatively the smaller of the two in the parallel
// phase, where either release's response can be delivered.
func (e *Engine) published(post *bayes.Posterior) float64 {
	target := e.cfg.ConfidenceTarget
	switch e.Phase() {
	case PhaseOldOnly, PhaseObservation:
		return post.ConfidenceA(target)
	case PhaseNewOnly:
		return post.ConfidenceB(target)
	default:
		return math.Min(post.ConfidenceA(target), post.ConfidenceB(target))
	}
}

// AvailabilityConfidence computes the confidence that a release's
// probability of not responding within the timeout is at most target —
// the §6.1 "confidence in availability" attribute, read back per release.
// It uses a black-box Beta-binomial inference over the monitor's
// response/no-response record with a diffuse Beta(1,1) prior on [0, 0.9].
func (e *Engine) AvailabilityConfidence(version string, target float64) (float64, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("%w: availability target %v", ErrBadConfig, target)
	}
	s, err := e.mon.Stats(version)
	if err != nil {
		return 0, fmt.Errorf("core: availability confidence: %w", err)
	}
	bb, err := availabilityInference()
	if err != nil {
		return 0, fmt.Errorf("core: availability prior: %w", err)
	}
	post, err := bb.Posterior(s.Demands, s.Demands-s.Responses)
	if err != nil {
		return 0, fmt.Errorf("core: availability posterior: %w", err)
	}
	return post.CDF(target), nil
}

// availabilityPrior is diffuse: before any evidence every no-response
// probability below 0.9 is equally plausible.
var availabilityPrior = stats.ScaledBeta{Alpha: 1, Beta: 1, Upper: 0.9}

// availabilityInference is the black-box engine over availabilityPrior
// that both §6.1 attributes query, built on first use.
var availabilityInference = sync.OnceValues(func() (*bayes.BlackBox, error) {
	return bayes.NewBlackBox(availabilityPrior, 300)
})

// ResponsivenessConfidence computes the confidence that a release's
// probability of exceeding maxLatency (or not responding at all) is at
// most target — the §6.1 "confidence in responsiveness" attribute.
func (e *Engine) ResponsivenessConfidence(version string, maxLatency time.Duration, target float64) (float64, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("%w: responsiveness target %v", ErrBadConfig, target)
	}
	if maxLatency <= 0 {
		return 0, fmt.Errorf("%w: latency bound %v", ErrBadConfig, maxLatency)
	}
	slow, demands, err := e.mon.SlowResponses(version, maxLatency)
	if err != nil {
		return 0, fmt.Errorf("core: responsiveness confidence: %w", err)
	}
	bb, err := availabilityInference()
	if err != nil {
		return 0, fmt.Errorf("core: responsiveness prior: %w", err)
	}
	post, err := bb.Posterior(demands, slow)
	if err != nil {
		return 0, fmt.Errorf("core: responsiveness posterior: %w", err)
	}
	return post.CDF(target), nil
}

// publishedConfidence is the scalar used in headers and responses:
// Confidence's Published without the rest of the report (on the response
// path, one CDF over one marginal).
func (e *Engine) publishedConfidence(operation string) (float64, error) {
	post, err := e.posteriorFor(operation)
	if err != nil {
		return 0, err
	}
	return e.published(post), nil
}

// serveConfidenceQuery answers the dedicated OperationConf operation
// (§6.2 option 2). It takes ownership of envBuf, the pooled request
// body, releasing it once the codec has decoded the queried operation.
//
//wsu:owns envBuf
func (e *Engine) serveConfidenceQuery(w http.ResponseWriter, envBuf *pool.Buf) {
	op, err := e.confOps.DecodeConfQuery(envBuf.B)
	envBuf.Release()
	if err != nil {
		e.codec.WriteError(w, wsdl.ConfOperationName, err)
		return
	}
	conf, err := e.publishedConfidence(op)
	if err != nil {
		e.codec.WriteError(w, wsdl.ConfOperationName, err)
		return
	}
	body, err := e.confOps.EncodeConfResponse(conf)
	if err != nil {
		e.codec.WriteError(w, wsdl.ConfOperationName, err)
		return
	}
	w.Header()["Content-Type"] = e.ctHeader
	_, _ = w.Write(body)
}

// serveConfVariant answers an "<op>Conf" call (§6.2 option 3): it invokes
// the underlying operation through the normal managed path and extends
// the response with the confidence element. It takes ownership of
// rawBuf, the pooled buffer holding the variant request as received;
// the rewritten envelope is copied into a fresh pooled buffer that
// rides the same dispatch path as directly proxied demands.
//
//wsu:owns rawBuf
func (e *Engine) serveConfVariant(w http.ResponseWriter, r *http.Request, rawBuf *pool.Buf, baseOp string) {
	rewritten, err := e.confOps.RewriteConfVariant(rawBuf.B, baseOp)
	rawBuf.Release()
	if err != nil {
		e.codec.WriteError(w, baseOp, err)
		return
	}
	override, _ := headerAdjudicator(r)
	envBuf := confEnvBufs.Get()
	envBuf.B = append(envBuf.B[:0], rewritten...)
	winner, adjErr := e.dispatch(r.Context(), envBuf, baseOp, override)
	if adjErr != nil {
		e.respond(w, baseOp, winner, adjErr)
		return
	}
	conf, err := e.publishedConfidence(baseOp)
	if err != nil {
		winner.ReleaseBody()
		e.codec.WriteError(w, baseOp, err)
		return
	}
	extended, err := e.confOps.ExtendConfVariant(winner.Body, baseOp, conf)
	if err != nil {
		winner.ReleaseBody()
		e.codec.WriteError(w, baseOp, err)
		return
	}
	// The winner's Buf still carries the pooled original body; respond
	// discharges it after the transformed body is written.
	winner.Body = extended
	e.respond(w, baseOp, winner, nil)
}

// confEnvBufs pools the re-marshalled request envelopes of §6.2
// "<op>Conf" variant calls so they ride the same pooled dispatch path as
// directly proxied envelopes.
var confEnvBufs pool.BufPool
