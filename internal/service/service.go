// Package service is the Web Service runtime: it hosts one *release* of a
// service — a WSDL contract plus operation handlers — over the SOAP/HTTP
// stack, with an injectable fault and latency model.
//
// The fault model follows the paper's taxonomy (§2.1, §5.2.1): on each
// demand the release responds correctly (CR), raises an evident failure
// (ER — a SOAP fault), or returns a plausible but wrong response (NER —
// produced by the operation's Faulty handler, the application-level
// failure only diversity can detect). Injection is deterministic given
// the seed, and every response carries a ground-truth marker header that
// only the test harness's oracle reads.
//
// Releases built with this package stand in for the paper's real
// third-party services: same interface, controllable dependability.
package service

import (
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"wsupgrade/internal/oracle"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/wsdl"
	"wsupgrade/internal/xrand"
)

// VersionHeader is the response header carrying the release version, the
// §3.2 requirement that releases be distinguishable.
const VersionHeader = "X-Wsupgrade-Release"

// ErrBadService reports an invalid service definition.
var ErrBadService = errors.New("service: bad definition")

// Behaviour is one operation's implementation.
type Behaviour struct {
	// Handler is the correct implementation.
	Handler soap.HandlerFunc
	// Faulty optionally produces the operation's non-evident failure
	// mode: a plausible wrong answer. When nil, injected NER demands are
	// served by corrupting the correct response with a marker element —
	// detectable by comparison, like any other content error.
	Faulty soap.HandlerFunc
}

// FaultPlan is the release's injected dependability profile.
type FaultPlan struct {
	// Profile gives the CR/ER/NER probabilities per demand. The zero
	// value means always correct.
	Profile relmodel.Profile
	// MeanLatency adds exponentially distributed artificial latency.
	MeanLatency time.Duration
	// Seed drives the injection stream.
	Seed uint64
}

// normalized returns the profile, defaulting the zero value to
// always-correct.
func (p FaultPlan) normalized() (relmodel.Profile, error) {
	if p.Profile == (relmodel.Profile{}) {
		return relmodel.Profile{CR: 1}, nil
	}
	if err := p.Profile.Validate(); err != nil {
		return relmodel.Profile{}, err
	}
	return p.Profile, nil
}

// Release hosts one release of a Web Service. Construct with New; serve
// via Handler.
type Release struct {
	contract wsdl.Contract
	plan     FaultPlan
	profile  relmodel.Profile
	soapSrv  *soap.Server

	mu       sync.Mutex
	rng      *xrand.Rand
	injected map[relmodel.OutcomeKind]int
	calls    int
}

// New builds a release runtime from a contract and its behaviours,
// keyed by operation name.
func New(contract wsdl.Contract, behaviours map[string]Behaviour, plan FaultPlan) (*Release, error) {
	if err := contract.Validate(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	profile, err := plan.normalized()
	if err != nil {
		return nil, fmt.Errorf("service: fault plan: %w", err)
	}
	r := &Release{
		contract: contract,
		plan:     plan,
		profile:  profile,
		soapSrv:  soap.NewServer(),
		rng:      xrand.New(plan.Seed),
		injected: make(map[relmodel.OutcomeKind]int),
	}
	for _, op := range contract.Operations {
		b, ok := behaviours[op.Name]
		if !ok || b.Handler == nil {
			return nil, fmt.Errorf("%w: operation %q has no handler", ErrBadService, op.Name)
		}
		r.soapSrv.Handle(op.RequestElement(), r.instrument(op.Name, b))
	}
	return r, nil
}

// Contract returns the hosted contract.
func (r *Release) Contract() wsdl.Contract { return r.contract }

// Version returns the release version string.
func (r *Release) Version() string { return r.contract.Version }

// Calls returns the number of operations served.
func (r *Release) Calls() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.calls
}

// Injected returns how many responses of each kind were injected — the
// ground truth the test harness compares the monitor against.
func (r *Release) Injected() map[relmodel.OutcomeKind]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[relmodel.OutcomeKind]int, len(r.injected))
	for k, v := range r.injected {
		out[k] = v
	}
	return out
}

// draw samples the outcome kind and latency for one demand.
func (r *Release) draw() (relmodel.OutcomeKind, time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.calls++
	kind := r.profile.Sample(r.rng)
	r.injected[kind]++
	var delay time.Duration
	if r.plan.MeanLatency > 0 {
		delay = time.Duration(r.rng.Exp(float64(r.plan.MeanLatency)))
	}
	return kind, delay
}

// instrument wraps a behaviour with fault and latency injection.
func (r *Release) instrument(opName string, b Behaviour) soap.HandlerFunc {
	return func(ctx context.Context, req *soap.Request) (interface{}, error) {
		kind, delay := r.draw()
		if delay > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(delay):
			}
		}
		req.ResponseHeader.Set(VersionHeader, r.contract.Version)
		req.ResponseHeader.Set(oracle.InjectionHeader, kind.String())
		switch kind {
		case relmodel.EvidentFailure:
			return nil, soap.ServerFault(fmt.Sprintf("injected evident failure in %s (release %s)",
				opName, r.contract.Version))
		case relmodel.NonEvidentFailure:
			if b.Faulty != nil {
				return b.Faulty(ctx, req)
			}
			resp, err := b.Handler(ctx, req)
			if err != nil {
				return nil, err
			}
			return corrupt(resp)
		default:
			return b.Handler(ctx, req)
		}
	}
}

// corrupt turns a correct response into a detectably wrong one by
// appending a marker element inside the response element.
func corrupt(resp interface{}) (interface{}, error) {
	var body []byte
	var err error
	if raw, ok := resp.(soap.Raw); ok {
		body = raw
	} else {
		body, err = xml.Marshal(resp)
		if err != nil {
			return nil, fmt.Errorf("service: corrupting response: %w", err)
		}
	}
	out, err := soap.InjectElement(body, []byte("<corrupted>injected non-evident failure</corrupted>"))
	if err != nil {
		return nil, fmt.Errorf("service: corrupting response: %w", err)
	}
	return soap.Raw(out), nil
}

// Handler returns the HTTP handler for this release: the SOAP endpoint at
// "/", the WSDL document at "/wsdl" (bound to the requesting host), and a
// liveness probe at "/healthz" (the management subsystem polls it when
// recovering failed releases).
func (r *Release) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", r.soapSrv)
	mux.HandleFunc("/wsdl", func(w http.ResponseWriter, req *http.Request) {
		location := "http://" + req.Host + "/"
		def, err := wsdl.Generate(r.contract, location)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		data, err := def.Marshal()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/xml; charset=utf-8")
		_, _ = w.Write(data)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set(VersionHeader, r.contract.Version)
		_, _ = w.Write([]byte("ok"))
	})
	return mux
}
