// Package service is the Web Service runtime: it hosts one *release* of a
// service — a WSDL contract plus operation handlers — over SOAP/HTTP and
// REST/JSON, with an injectable fault and latency model.
//
// The fault model follows the paper's taxonomy (§2.1, §5.2.1): on each
// demand the release responds correctly (CR), raises an evident failure
// (ER — a SOAP fault or a JSON error body), or returns a plausible but
// wrong response (NER — produced by the operation's Faulty handler, the
// application-level failure only diversity can detect). Its execution
// time is exponential (eq. 7), so a consumer that times it out sees an
// omission. It is the repository's only model of a misbehaving release.
// Injection is deterministic given the seed, and every response carries
// a ground-truth marker header that only the test harness's oracle
// reads.
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
	"wsupgrade/internal/protocol/soapcodec"
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

// Behaviour is one operation's implementation, the same on both of a
// release's faces. A handler reads the request through decode, which
// fills a value from the request body and returns the face's own client
// error (a soap:Client fault, or a JSON 400) when it cannot, and returns
// the response value, which the face marshals as XML or JSON.
type Behaviour struct {
	// Handler is the correct implementation.
	Handler func(ctx context.Context, decode func(any) error) (any, error)
	// Faulty optionally produces the operation's non-evident failure
	// mode: a plausible wrong answer. When nil, injected NER demands are
	// served by corrupting the correct response with a marker element
	// (SOAP) or key (JSON) — detectable by comparison, like any other
	// content error.
	Faulty func(ctx context.Context, decode func(any) error) (any, error)
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

// Release hosts one release of a Web Service: a contract, its
// behaviours and one fault and latency injector — a FaultPlan's
// profile, mean latency and seeded stream — with the ground-truth
// counts of what it injected, shared by the SOAP and the REST/JSON
// faces. Construct with New; serve via Handler.
type Release struct {
	contract    wsdl.Contract
	behaviours  map[string]Behaviour
	soapSrv     *soap.Server
	profile     relmodel.Profile
	meanLatency time.Duration

	mu       sync.Mutex
	rng      *xrand.Rand
	injected map[relmodel.OutcomeKind]int
	calls    int
}

// New builds a release runtime from a contract and its behaviours,
// keyed by operation name. The zero fault profile means always correct.
func New(contract wsdl.Contract, behaviours map[string]Behaviour, plan FaultPlan) (*Release, error) {
	if err := contract.Validate(); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	profile := plan.Profile
	if profile == (relmodel.Profile{}) {
		profile = relmodel.Profile{CR: 1}
	} else if err := profile.Validate(); err != nil {
		return nil, fmt.Errorf("service: fault plan: %w", err)
	}
	r := &Release{
		contract:    contract,
		behaviours:  make(map[string]Behaviour, len(contract.Operations)),
		soapSrv:     soap.NewServer(),
		profile:     profile,
		meanLatency: plan.MeanLatency,
		rng:         xrand.New(plan.Seed),
		injected:    make(map[relmodel.OutcomeKind]int),
	}
	for _, op := range contract.Operations {
		b, ok := behaviours[op.Name]
		if !ok || b.Handler == nil {
			return nil, fmt.Errorf("%w: operation %q has no handler", ErrBadService, op.Name)
		}
		r.behaviours[op.Name] = b
		r.soapSrv.Handle(op.RequestElement(), func(ctx context.Context, req *soap.Request) (any, error) {
			decode := func(v any) error {
				if err := req.Decode(v); err != nil {
					return soap.ClientFault(err.Error())
				}
				return nil
			}
			return r.answer(ctx, req.ResponseHeader, op.Name, b, decode, corruptXML)
		})
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
// ground truth the test harness compares the monitor against. A demand
// whose consumer gave up during the injected latency was never
// answered and counts under no kind, so Calls minus the sum of
// Injected is the number of abandoned demands.
func (r *Release) Injected() map[relmodel.OutcomeKind]int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[relmodel.OutcomeKind]int, len(r.injected))
	for k, v := range r.injected {
		out[k] = v
	}
	return out
}

// draw samples the outcome kind of one demand and waits out its
// injected latency, returning ctx's error if the consumer gives up
// first. The kind is counted only once the wait is over with the
// consumer still there.
func (r *Release) draw(ctx context.Context) (relmodel.OutcomeKind, error) {
	r.mu.Lock()
	r.calls++
	kind := r.profile.Sample(r.rng)
	var delay time.Duration
	if r.meanLatency > 0 {
		delay = time.Duration(r.rng.Exp(float64(r.meanLatency)))
	}
	r.mu.Unlock()
	if delay > 0 {
		select {
		case <-ctx.Done():
		case <-time.After(delay):
		}
		if err := ctx.Err(); err != nil {
			return kind, err
		}
	}
	r.mu.Lock()
	r.injected[kind]++
	r.mu.Unlock()
	return kind, nil
}

// answer serves one demand of op, the same on both faces: it draws the
// outcome, labels the response with the version and the ground truth,
// and runs the behaviour. An evident failure is a plain error, which
// either face turns into its server error (a soap:Server fault, a JSON
// 500); a non-evident one is the behaviour's Faulty answer or, without
// one, its correct answer through the face's corrupt.
func (r *Release) answer(ctx context.Context, hdr http.Header, op string, b Behaviour,
	decode func(any) error, corrupt func(any) (any, error)) (any, error) {
	kind, err := r.draw(ctx)
	if err != nil {
		return nil, err
	}
	hdr.Set(VersionHeader, r.contract.Version)
	hdr.Set(oracle.InjectionHeader, kind.String())
	switch kind {
	case relmodel.EvidentFailure:
		return nil, fmt.Errorf("injected evident failure in %s (release %s)", op, r.contract.Version)
	case relmodel.NonEvidentFailure:
		if b.Faulty != nil {
			return b.Faulty(ctx, decode)
		}
		resp, err := b.Handler(ctx, decode)
		if err != nil {
			return nil, err
		}
		return corrupt(resp)
	default:
		return b.Handler(ctx, decode)
	}
}

// corruptXML turns a correct response into a detectably wrong one by
// appending a marker element inside the response element.
func corruptXML(resp any) (any, error) {
	body, err := xml.Marshal(resp)
	if err != nil {
		return nil, fmt.Errorf("service: corrupting response: %w", err)
	}
	out, err := soap.InjectElement(body, []byte("<corrupted>injected non-evident failure</corrupted>"))
	if err != nil {
		return nil, fmt.Errorf("service: corrupting response: %w", err)
	}
	return soap.Raw(out), nil
}

// Handler returns the HTTP handler for this release: the operations at
// "/", the WSDL document at "/wsdl" (bound to the requesting host), and a
// liveness probe at "/healthz" (the management subsystem polls it when
// recovering failed releases). A demand whose Content-Type names JSON —
// one the SOAP codec's Accepts refuses — is a REST/JSON call of the
// operation its path names, "/<operation>"; any other is a SOAP call.
func (r *Release) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if !soapcodec.Default.Accepts(req.Header.Get("Content-Type")) {
			r.serveJSON(w, req)
			return
		}
		r.soapSrv.ServeHTTP(w, req)
	})
	mux.HandleFunc("/wsdl", func(w http.ResponseWriter, req *http.Request) {
		wsdl.Serve(w, req, r.contract)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set(VersionHeader, r.contract.Version)
		_, _ = w.Write([]byte("ok"))
	})
	return mux
}
