package core

import (
	"fmt"
	"hash/maphash"
	"math"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/pool"
	"wsupgrade/internal/registry"
	"wsupgrade/internal/stats"
	"wsupgrade/internal/wsdl"
)

// This file is the engine's §6.2 surface: the confidence report, the
// three ways it reaches consumers (response header, dedicated query
// operation, "<op>Conf" variants), the extended WSDL that declares them
// and the registry entry that carries it, over a memo of recent
// posteriors.

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
		Published: servedConfidence(e.Phase(), post, e.cfg.ConfidenceTarget),
		Demands:   post.Counts.N,
	}, nil
}

// AvailabilityConfidence computes the confidence that a release's
// probability of not responding within the timeout is at most target —
// the §6.1 "confidence in availability" attribute, read back per release
// from the monitor's response/no-response record by a Beta-binomial
// inference with a diffuse Beta(1,1) prior on [0, 0.9].
func (e *Engine) AvailabilityConfidence(version string, target float64) (float64, error) {
	s, err := e.mon.Stats(version)
	if err != nil {
		return 0, fmt.Errorf("core: availability confidence: %w", err)
	}
	return blackBoxConfidence("availability", s.Demands, s.Demands-s.Responses, target)
}

// ResponsivenessConfidence computes the confidence that a release's
// probability of exceeding maxLatency (or not responding at all) is at
// most target — the §6.1 "confidence in responsiveness" attribute.
func (e *Engine) ResponsivenessConfidence(version string, maxLatency time.Duration, target float64) (float64, error) {
	if maxLatency <= 0 {
		return 0, fmt.Errorf("%w: latency bound %v", ErrBadConfig, maxLatency)
	}
	slow, demands, err := e.mon.SlowResponses(version, maxLatency)
	if err != nil {
		return 0, fmt.Errorf("core: responsiveness confidence: %w", err)
	}
	return blackBoxConfidence("responsiveness", demands, slow, target)
}

// blackBoxPrior is diffuse: before any evidence every failure
// probability below 0.9 is equally plausible.
var blackBoxPrior = stats.ScaledBeta{Alpha: 1, Beta: 1, Upper: 0.9}

// blackBoxInference is the Beta-binomial engine over blackBoxPrior that
// both §6.1 attributes query, built on first use.
var blackBoxInference = sync.OnceValues(func() (*bayes.BlackBox, error) {
	return bayes.NewBlackBox(blackBoxPrior, 300)
})

// blackBoxConfidence is P(p ≤ target) for a release's probability p of
// failing the §6.1 attribute what, given failures among demands.
func blackBoxConfidence(what string, demands, failures int, target float64) (float64, error) {
	if target <= 0 || target >= 1 {
		return 0, fmt.Errorf("%w: %s target %v", ErrBadConfig, what, target)
	}
	bb, err := blackBoxInference()
	if err != nil {
		return 0, fmt.Errorf("core: %s prior: %w", what, err)
	}
	post, err := bb.Posterior(demands, failures)
	if err != nil {
		return 0, fmt.Errorf("core: %s posterior: %w", what, err)
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
	return servedConfidence(e.Phase(), post, e.cfg.ConfidenceTarget), nil
}

// confVariantBase reports whether operation is a §6.2 "<op>Conf"
// variant, returning the underlying operation name. When a Contract is
// configured, the variant interpretation applies only if the base
// operation exists in the contract and the full name does not — a
// genuine contract operation named e.g. "GetConf" is proxied as itself.
func (e *Engine) confVariantBase(operation string) (string, bool) {
	if !strings.HasSuffix(operation, "Conf") || operation == wsdl.ConfOperationName {
		return "", false
	}
	base := strings.TrimSuffix(operation, "Conf")
	if e.contractOps != nil && (e.contractOps[operation] || !e.contractOps[base]) {
		return "", false
	}
	return base, true
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

// serveWSDL publishes the contract at /wsdl, extended with the §6.2
// confidence operations when they are served.
func (e *Engine) serveWSDL(w http.ResponseWriter, r *http.Request) {
	if e.cfg.Contract == nil {
		http.Error(w, "no contract configured", http.StatusNotFound)
		return
	}
	contract := *e.cfg.Contract
	if e.cfg.EnableConfOps {
		contract = contract.WithConfidenceOperation()
		for _, op := range e.cfg.Contract.Operations {
			extended, err := contract.WithConfVariant(op.Name)
			if err == nil {
				contract = extended
			}
		}
	}
	wsdl.Serve(w, r, contract)
}

// RegistryEntry builds the registry entry describing this engine's
// service surface (the §6.2 "publish the confidence in the UDDI archive"
// path). name is the service name; endpoint is the engine's public URL.
func (e *Engine) RegistryEntry(name, endpoint string) registry.Entry {
	releases := e.state.Load().releases
	entry := registry.Entry{
		Name:     name,
		Version:  releases[len(releases)-1].Version,
		URL:      endpoint,
		Provider: "wsupgrade-middleware",
	}
	if e.cfg.Contract != nil && e.inference != nil {
		for _, op := range e.cfg.Contract.Operations {
			if conf, err := e.publishedConfidence(op.Name); err == nil {
				entry.Confidence = append(entry.Confidence, registry.OperationConfidence{
					Name:  op.Name,
					Value: math.Round(conf*1e6) / 1e6,
				})
			}
		}
	}
	return entry
}
