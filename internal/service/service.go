// Package service is the Web Service runtime: it hosts one *release* of a
// service — a WSDL contract plus operation handlers — over the SOAP/HTTP
// stack, with an injectable fault and latency model.
//
// The fault model follows the paper's taxonomy (§2.1, §5.2.1): on each
// demand the release responds correctly (CR), raises an evident failure
// (ER — a SOAP fault), or returns a plausible but wrong response (NER —
// produced by the operation's Faulty handler, the application-level
// failure only diversity can detect). Its execution time is exponential
// (eq. 7), so a consumer that times it out sees an omission. It is the
// repository's only model of a misbehaving release. Injection is
// deterministic given the seed, and every response carries a
// ground-truth marker header that only the test harness's oracle reads.
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

// injector is a release runtime's fault and latency injection — a
// FaultPlan's profile, mean latency and seeded stream — and the
// ground-truth counts of what it injected. Both release runtimes (SOAP
// and JSON) embed one.
type injector struct {
	profile     relmodel.Profile
	meanLatency time.Duration

	mu       sync.Mutex
	rng      *xrand.Rand
	injected map[relmodel.OutcomeKind]int
	calls    int
}

// newInjector validates the plan, defaulting the zero profile to
// always-correct.
func newInjector(plan FaultPlan) (*injector, error) {
	profile := plan.Profile
	if profile == (relmodel.Profile{}) {
		profile = relmodel.Profile{CR: 1}
	} else if err := profile.Validate(); err != nil {
		return nil, fmt.Errorf("service: fault plan: %w", err)
	}
	return &injector{
		profile:     profile,
		meanLatency: plan.MeanLatency,
		rng:         xrand.New(plan.Seed),
		injected:    make(map[relmodel.OutcomeKind]int),
	}, nil
}

// Calls returns the number of operations served.
func (in *injector) Calls() int {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls
}

// Injected returns how many responses of each kind were injected — the
// ground truth the test harness compares the monitor against. A demand
// whose consumer gave up during the injected latency was never
// answered and counts under no kind, so Calls minus the sum of
// Injected is the number of abandoned demands.
func (in *injector) Injected() map[relmodel.OutcomeKind]int {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[relmodel.OutcomeKind]int, len(in.injected))
	for k, v := range in.injected {
		out[k] = v
	}
	return out
}

// draw samples the outcome kind of one demand and waits out its
// injected latency, returning ctx's error if the consumer gives up
// first. The kind is counted only once the wait is over with the
// consumer still there.
func (in *injector) draw(ctx context.Context) (relmodel.OutcomeKind, error) {
	in.mu.Lock()
	in.calls++
	kind := in.profile.Sample(in.rng)
	var delay time.Duration
	if in.meanLatency > 0 {
		delay = time.Duration(in.rng.Exp(float64(in.meanLatency)))
	}
	in.mu.Unlock()
	if delay > 0 {
		select {
		case <-ctx.Done():
		case <-time.After(delay):
		}
		if err := ctx.Err(); err != nil {
			return kind, err
		}
	}
	in.mu.Lock()
	in.injected[kind]++
	in.mu.Unlock()
	return kind, nil
}

// Release hosts one release of a Web Service. Construct with New; serve
// via Handler.
type Release struct {
	*injector
	contract wsdl.Contract
	soapSrv  *soap.Server
}

// New builds a release runtime from a contract and its behaviours,
// keyed by operation name.
func New(contract wsdl.Contract, behaviours map[string]Behaviour, plan FaultPlan) (*Release, error) {
	if err := contract.Validate(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	in, err := newInjector(plan)
	if err != nil {
		return nil, err
	}
	r := &Release{injector: in, contract: contract, soapSrv: soap.NewServer()}
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

// instrument wraps a behaviour with fault and latency injection.
func (r *Release) instrument(opName string, b Behaviour) soap.HandlerFunc {
	return func(ctx context.Context, req *soap.Request) (interface{}, error) {
		kind, err := r.draw(ctx)
		if err != nil {
			return nil, err
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
		wsdl.Serve(w, req, r.contract)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set(VersionHeader, r.contract.Version)
		_, _ = w.Write([]byte("ok"))
	})
	return mux
}
