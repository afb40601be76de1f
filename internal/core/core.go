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
// What remains here is the composition itself: phase-aware target
// selection and delivery authority, health marks, the monitoring sink,
// the §6.2 confidence-publishing mechanisms (a dedicated OperationConf
// operation, backward-compatible "<op>Conf" variants, per-response
// confidence headers), and registry publication helpers. The lifecycle
// phases follow §3.3/§4.2: OldOnly (new release deployed but unused) →
// Observation (both run back-to-back, the old release's response is
// delivered) → Parallel (adjudicated 1-out-of-2 delivery) → NewOnly
// (switched). Releases can be added and removed online.
package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/bayes"
	"wsupgrade/internal/dispatch"
	"wsupgrade/internal/httpx"
	"wsupgrade/internal/lifecycle"
	"wsupgrade/internal/monitor"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/pool"
	"wsupgrade/internal/protocol"
	"wsupgrade/internal/protocol/soapcodec"
	"wsupgrade/internal/registry"
	"wsupgrade/internal/wire"
	"wsupgrade/internal/wsdl"
)

// Errors reported by the engine.
var (
	// ErrBadConfig reports an invalid engine configuration.
	ErrBadConfig = errors.New("core: bad configuration")
	// ErrBadPhase reports an impossible phase value or transition. It is
	// the lifecycle layer's sentinel: illegal §4.1 transitions returned
	// by SetPhase match both this and lifecycle.ErrIllegalTransition.
	ErrBadPhase = lifecycle.ErrBadPhase
	// ErrUnknownRelease reports an operation on an undeployed release.
	ErrUnknownRelease = errors.New("core: unknown release")
	// ErrNoInference reports a confidence query on an engine built
	// without an inference configuration.
	ErrNoInference = errors.New("core: no inference engine configured")
)

// Endpoint identifies one deployed release of the upgraded service.
type Endpoint = dispatch.Endpoint

// Phase is the upgrade lifecycle state (§3.3, §4.2); see
// internal/lifecycle for the transition rules.
type Phase = lifecycle.Phase

// Lifecycle phases.
const (
	PhaseOldOnly     = lifecycle.PhaseOldOnly
	PhaseObservation = lifecycle.PhaseObservation
	PhaseParallel    = lifecycle.PhaseParallel
	PhaseNewOnly     = lifecycle.PhaseNewOnly
)

// Mode is the fan-out strategy while several releases are invoked (§4.2).
type Mode = dispatch.Mode

// Operating modes.
const (
	ModeReliability    = dispatch.ModeReliability
	ModeResponsiveness = dispatch.ModeResponsiveness
	ModeDynamic        = dispatch.ModeDynamic
	ModeSequential     = dispatch.ModeSequential
)

// PolicyConfig is the management subsystem's automatic switch rule
// (§5.1.1.2): when Criterion is satisfied on the posterior, the engine
// advances to PhaseNewOnly.
type PolicyConfig = lifecycle.SwitchPolicy

// Config parameterizes the engine.
type Config struct {
	// Releases lists the deployed releases, oldest first. At least one.
	Releases []Endpoint
	// Timeout bounds each fan-out (default 2 s).
	Timeout time.Duration
	// Mode selects the fan-out strategy (default ModeReliability).
	Mode Mode
	// Quorum is ModeDynamic's response count (default 1).
	Quorum int
	// Adjudicator picks the delivered response in PhaseParallel
	// (default adjudicate.RandomValid, the paper's §5.2.1 rules).
	Adjudicator adjudicate.Adjudicator
	// Oracle judges response correctness for monitoring (default
	// oracle.FaultOnly: evident failures only).
	Oracle oracle.Oracle
	// Codec selects the unit's wire protocol (the protocol seam —
	// soapcodec.Default, jsoncodec.Default, ...); nil means SOAP. The
	// §6.2 confidence operations (EnableConfOps) need a codec
	// implementing protocol.ConfOps; units whose codec has no native
	// header representation publish PublishHeader confidence via the
	// ConfidenceHeader HTTP header instead.
	Codec protocol.Codec
	// InitialPhase is the starting lifecycle state (default
	// PhaseParallel; PhaseOldOnly and PhaseObservation need ≥2
	// releases).
	InitialPhase Phase
	// Policy enables automatic switching; nil means manual only.
	Policy *PolicyConfig
	// Inference configures the white-box confidence engine over the
	// (oldest, newest) release pair. Required when Policy is set or
	// confidence is published.
	Inference *bayes.WhiteBoxConfig
	// ConfidenceTarget is the pfd target T of the published confidence
	// P(pfd ≤ T) (default 1e-2).
	ConfidenceTarget float64
	// Retry tolerates transient transport failures per release call
	// (default httpx.NoRetry).
	Retry httpx.RetryPolicy
	// PublishHeader attaches a confidence header to every response
	// (§6.2's protocol-handler mechanism).
	PublishHeader bool
	// EnableConfOps serves OperationConf and "<op>Conf" variants (§6.2
	// options 2 and 3).
	EnableConfOps bool
	// Contract optionally describes the proxied service; when set, the
	// engine serves the §6.2-extended WSDL at /wsdl.
	Contract *wsdl.Contract
	// Monitor overrides the monitoring subsystem (default monitor.New()).
	Monitor *monitor.Monitor
	// HTTP is the net/http client a deployment configures for what the
	// wire transport does not speak natively: it carries release calls
	// to non-http:// endpoints (TLS certificates, credentials) as the
	// wire client's fallback, and every /healthz probe. Nil means a
	// pooled client the engine builds and owns.
	HTTP *http.Client
	// Dial overrides the wire transport's connection establishment
	// (in-memory benchmarks and tests).
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
	// Wire injects a shared wire client (the fleet's cross-unit pool),
	// which then brings its own fallback and Dial; nil means the engine
	// builds and owns one.
	Wire *wire.Client
	// Seed drives adjudication tie-breaking.
	Seed uint64
	// Store streams the event log as JSONL (the architecture's
	// "Data Base"); nil disables. It configures the monitor the engine
	// builds: setting it together with Monitor is rejected.
	Store io.Writer
}

// engineState is the complete dispatch-relevant configuration, swapped
// atomically as one immutable value. The request hot path loads it with
// a single atomic pointer read and never takes the engine mutex; writers
// (the management subsystem: SetPhase, SetMode, SetTimeout, AddRelease,
// RemoveRelease, CheckHealth, the automatic switch policy) serialize on
// Engine.mu, copy the current state, and publish the successor.
//
// An *engineState must never be mutated after publication: releases and
// down are owned by the state value and shared by every reader.
type engineState struct {
	releases   []Endpoint
	down       map[string]bool // releases marked unavailable by health checks; nil when none
	phase      Phase
	mode       Mode
	quorum     int
	timeout    time.Duration
	switchedAt int // joint demands when auto-switch fired; 0 = not yet
	// deliver is the phase-appropriate delivery rule, precomputed at
	// publication so the hot path never re-boxes an adjudicator.
	deliver adjudicate.Adjudicator
	// winnerHdr maps each release version to its precomputed
	// X-Wsupgrade-Winner header value slice, so the response path does
	// not allocate a fresh []string per request. The slices are shared:
	// response writers must not mutate them (net/http and httptest only
	// read or clone).
	winnerHdr map[string][]string
}

// winnerHeaders precomputes the per-release winner-header values.
func winnerHeaders(releases []Endpoint) map[string][]string {
	m := make(map[string][]string, len(releases))
	for _, r := range releases {
		m[r.Version] = []string{r.Version}
	}
	return m
}

// clone returns a deep copy safe to mutate before publication.
func (s *engineState) clone() *engineState {
	c := *s
	c.releases = append([]Endpoint(nil), s.releases...)
	if len(s.down) > 0 {
		c.down = make(map[string]bool, len(s.down))
		for k, v := range s.down {
			if v {
				c.down[k] = true
			}
		}
	} else {
		c.down = nil
	}
	return &c
}

// deliveryRule selects the phase-appropriate delivery authority (§3.1:
// the old release remains authoritative until the switch).
func deliveryRule(phase Phase, oldest, newest Endpoint, adj adjudicate.Adjudicator) adjudicate.Adjudicator {
	switch phase {
	case PhaseOldOnly, PhaseObservation:
		return adjudicate.Preferred{Release: oldest.Version, Fallback: adj}
	case PhaseNewOnly:
		return adjudicate.Preferred{Release: newest.Version, Fallback: adj}
	default:
		return adj
	}
}

// Engine is the managed-upgrade middleware. It implements http.Handler
// (the SOAP endpoint); Handler() adds /wsdl and /healthz.
// Construct with New; call Close to drain background monitoring work.
type Engine struct {
	cfg Config
	// wire carries every release call; client is its net/http fallback
	// for non-http:// endpoints and the /healthz probe client. The
	// engine built (and Close shuts down) whichever of them cfg.Wire /
	// cfg.HTTP left nil; the others belong to the caller or a fleet.
	wire   *wire.Client
	client *http.Client

	adjudic   adjudicate.Adjudicator
	oracle    oracle.Oracle
	mon       *monitor.Monitor
	inference *memoInference // nil without an inference configuration
	disp      *dispatch.Dispatcher

	// codec is the unit's wire protocol; the derived fields are
	// precomputed at New so the request path never rebuilds them:
	// confOps is the codec's §6.2 extension (nil when it has none),
	// confQueryElement the wire element selecting the dedicated
	// confidence query, ctHeader the shared Content-Type header value
	// slice, and postOnlyMsg/badTypeMsg the gateway rejection texts.
	codec            protocol.Codec
	confOps          protocol.ConfOps
	confQueryElement string
	ctHeader         []string
	postOnlyMsg      string
	badTypeMsg       string

	// contractOps is the set of operation names in cfg.Contract (nil
	// when no contract is configured). It guards §6.2 "<op>Conf" variant
	// routing: a genuine contract operation whose name happens to end in
	// "Conf" must not be hijacked.
	contractOps map[string]bool

	state atomic.Pointer[engineState]
	mu    sync.Mutex // serializes state writers (copy-on-write publishers)

	// hooks observe lifecycle transitions (fleet aggregation, logging);
	// relHooks observe release-set changes (journal capture).
	hooks    lifecycle.Hooks[lifecycle.Transition]
	relHooks lifecycle.Hooks[releaseChange]

	policyMu sync.Mutex // serializes posterior evaluation

	// healthCheckDone, when set before StartHealthChecks, is called after
	// every periodic probe round. Tests use it to synchronize on prober
	// progress without sleeping.
	healthCheckDone func()
}

var _ http.Handler = (*Engine)(nil)

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Releases) == 0 {
		return nil, fmt.Errorf("%w: no releases", ErrBadConfig)
	}
	seen := map[string]bool{}
	for _, r := range cfg.Releases {
		if r.Version == "" || r.URL == "" {
			return nil, fmt.Errorf("%w: release needs version and URL: %+v", ErrBadConfig, r)
		}
		if seen[r.Version] {
			return nil, fmt.Errorf("%w: duplicate release %q", ErrBadConfig, r.Version)
		}
		seen[r.Version] = true
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	if cfg.Timeout < 0 {
		return nil, fmt.Errorf("%w: negative timeout", ErrBadConfig)
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeReliability
	}
	switch {
	case cfg.Mode == ModeDynamic:
		if cfg.Quorum == 0 {
			cfg.Quorum = 1
		}
		if cfg.Quorum < 1 || cfg.Quorum > len(cfg.Releases) {
			return nil, fmt.Errorf("%w: quorum %d with %d releases", ErrBadConfig, cfg.Quorum, len(cfg.Releases))
		}
	case cfg.Mode.Known():
	default:
		return nil, fmt.Errorf("%w: mode %v", ErrBadConfig, cfg.Mode)
	}
	if cfg.InitialPhase == 0 {
		cfg.InitialPhase = PhaseParallel
	}
	if err := lifecycle.Validate(cfg.InitialPhase, len(cfg.Releases)); err != nil {
		return nil, err
	}
	if cfg.Adjudicator == nil {
		cfg.Adjudicator = adjudicate.RandomValid{}
	}
	if cfg.Oracle == nil {
		cfg.Oracle = oracle.FaultOnly{}
	}
	if cfg.ConfidenceTarget == 0 {
		cfg.ConfidenceTarget = 1e-2
	}
	if cfg.ConfidenceTarget < 0 || cfg.ConfidenceTarget > 1 {
		return nil, fmt.Errorf("%w: confidence target %v", ErrBadConfig, cfg.ConfidenceTarget)
	}
	if cfg.Retry.Attempts == 0 {
		cfg.Retry = httpx.NoRetry
	}
	if err := cfg.Retry.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	if cfg.Policy != nil {
		if err := cfg.Policy.Normalize(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		if cfg.Inference == nil {
			return nil, fmt.Errorf("%w: policy requires an inference configuration", ErrBadConfig)
		}
	}

	e := &Engine{
		cfg:     cfg,
		adjudic: cfg.Adjudicator,
		oracle:  cfg.Oracle,
	}
	codec := cfg.Codec
	if codec == nil {
		codec = soapcodec.Default
	}
	e.codec = codec
	e.ctHeader = []string{codec.ContentType()}
	e.postOnlyMsg = codec.Name() + " endpoint: POST only"
	e.badTypeMsg = codec.Name() + " endpoint: unsupported content type"
	if co, ok := codec.(protocol.ConfOps); ok {
		e.confOps = co
		e.confQueryElement = co.ConfQueryElement()
	}
	if cfg.EnableConfOps && e.confOps == nil {
		return nil, fmt.Errorf("%w: codec %q has no confidence-operation support (EnableConfOps)", ErrBadConfig, codec.Name())
	}
	// The monitor exists before the first state publication: every
	// published state carries its releases' interned monitor indices.
	switch {
	case cfg.Monitor != nil && cfg.Store != nil:
		// The sink is an option of the monitor the engine builds; a
		// supplied one was built without it and would drop the log silently.
		return nil, fmt.Errorf("%w: Store with a supplied Monitor (build the monitor with monitor.WithSink instead)", ErrBadConfig)
	case cfg.Monitor != nil:
		e.mon = cfg.Monitor
	case cfg.Store != nil:
		e.mon = monitor.New(monitor.WithSink(cfg.Store))
	default:
		e.mon = monitor.New()
	}
	releases := append([]Endpoint(nil), cfg.Releases...)
	e.internReleases(releases)
	e.state.Store(&engineState{
		releases:  releases,
		phase:     cfg.InitialPhase,
		mode:      cfg.Mode,
		quorum:    cfg.Quorum,
		timeout:   cfg.Timeout,
		deliver:   deliveryRule(cfg.InitialPhase, releases[0], releases[len(releases)-1], cfg.Adjudicator),
		winnerHdr: winnerHeaders(releases),
	})
	// One release transport: the wire client, which speaks http://
	// natively and hands every other scheme to its net/http fallback.
	// The fallback is a dedicated pooled transport (http.DefaultTransport
	// keeps only 2 idle connections per host, so a TLS release would
	// re-dial on every parallel burst) and doubles as the probe client.
	e.client = cfg.HTTP
	if e.client == nil {
		e.client = httpx.NewPooledClient(cfg.Timeout+500*time.Millisecond, len(cfg.Releases))
	}
	e.wire = cfg.Wire
	if e.wire == nil {
		e.wire = wire.NewClient(wire.Options{
			Dial:     cfg.Dial,
			Timeout:  cfg.Timeout + 500*time.Millisecond,
			Fallback: e.client,
		})
	}
	// The retry policy is bound into the transport here, once: dispatch
	// begins calls and never sees a policy.
	wc, retry := e.wire, cfg.Retry
	e.disp = dispatch.New(dispatch.Config{
		Begin: func(ctx context.Context, url, contentType string, body []byte) wire.Call {
			//wsu:allow poolcheck -- the begun call goes to dispatch, which ends it exactly once
			return wc.Begin(ctx, url, contentType, body, retry)
		},
		Seed:      cfg.Seed,
		OnOutcome: e.recordOutcome,
		Codec:     codec,
	})
	if cfg.Contract != nil {
		e.contractOps = make(map[string]bool, len(cfg.Contract.Operations))
		for _, op := range cfg.Contract.Operations {
			e.contractOps[op.Name] = true
		}
	}
	if cfg.Inference != nil {
		wb, err := bayes.NewWhiteBox(*cfg.Inference)
		if err != nil {
			return nil, fmt.Errorf("core: building inference engine: %w", err)
		}
		e.inference = &memoInference{model: wb}
	}
	return e, nil
}

// Close waits for background monitoring work to finish (bounded by the
// call timeout) and shuts down the engine-owned transport's keep-alive
// connections (up to 32 per release host would otherwise linger for the
// 90 s idle timeout). The engine must not serve new requests afterwards.
func (e *Engine) Close() error {
	err := e.disp.Close()
	if e.cfg.HTTP == nil {
		e.client.CloseIdleConnections()
	}
	if e.cfg.Wire == nil {
		_ = e.wire.Close()
	}
	return err
}

// Monitor exposes the monitoring subsystem.
func (e *Engine) Monitor() *monitor.Monitor { return e.mon }

// OnTransition registers an observer of lifecycle transitions (manual,
// policy-driven, and topology-forced alike). Hooks fire after the
// transition has been published, outside the engine's write lock; they
// must not block and must not call the engine's own mutators.
func (e *Engine) OnTransition(fn func(lifecycle.Transition)) {
	e.hooks.Add(fn)
}

// updateState publishes a successor state built by mutate, serialized
// against every other writer. mutate receives a private clone; returning
// an error discards it without publication. A phase change fires the
// transition hooks after publication.
func (e *Engine) updateState(cause lifecycle.Cause, mutate func(*engineState) error) error {
	e.mu.Lock()
	cur := e.state.Load()
	next := cur.clone()
	if err := mutate(next); err != nil {
		e.mu.Unlock()
		return err
	}
	next.deliver = deliveryRule(next.phase, next.releases[0],
		next.releases[len(next.releases)-1], e.adjudic)
	next.winnerHdr = winnerHeaders(next.releases)
	e.internReleases(next.releases)
	e.state.Store(next)
	from, to := cur.phase, next.phase
	demands := 0
	if cause == lifecycle.CausePolicy {
		demands = next.switchedAt
	}
	e.mu.Unlock()
	if from != to {
		e.hooks.Fire(lifecycle.Transition{From: from, To: to, Cause: cause, Demands: demands})
	}
	e.fireReleaseChanges(cur.releases, next.releases)
	return nil
}

// Phase returns the current lifecycle phase.
func (e *Engine) Phase() Phase {
	return e.state.Load().phase
}

// SetPhase transitions the lifecycle manually. The transition is
// validated against the §4.1 rules (lifecycle.CanTransition: forward
// movement with skips, abort to OldOnly, restart out of NewOnly) and
// the deployed release count; an illegal transition is rejected with an
// error matching both ErrBadPhase and lifecycle.ErrIllegalTransition.
func (e *Engine) SetPhase(p Phase) error {
	return e.updateState(lifecycle.CauseManual, func(s *engineState) error {
		if err := lifecycle.CanTransition(s.phase, p); err != nil {
			return err
		}
		if err := lifecycle.Validate(p, len(s.releases)); err != nil {
			return err
		}
		s.phase = p
		return nil
	})
}

// SwitchedAt reports the joint-demand count at which the automatic policy
// switched to the new release (0, false if it has not).
func (e *Engine) SwitchedAt() (int, bool) {
	at := e.state.Load().switchedAt
	return at, at > 0
}

// Releases returns the deployed releases, oldest first.
func (e *Engine) Releases() []Endpoint {
	return append([]Endpoint(nil), e.state.Load().releases...)
}

// AddRelease deploys a release online; it becomes the newest.
func (e *Engine) AddRelease(ep Endpoint) error {
	if ep.Version == "" || ep.URL == "" {
		return fmt.Errorf("%w: release needs version and URL", ErrBadConfig)
	}
	return e.updateState(lifecycle.CauseTopology, func(s *engineState) error {
		for _, r := range s.releases {
			if r.Version == ep.Version {
				return fmt.Errorf("%w: duplicate release %q", ErrBadConfig, ep.Version)
			}
		}
		s.releases = append(s.releases, ep)
		return nil
	})
}

// RemoveRelease phases a release out online. The last release cannot be
// removed, and removing below two releases forces PhaseNewOnly.
func (e *Engine) RemoveRelease(version string) error {
	return e.updateState(lifecycle.CauseTopology, func(s *engineState) error {
		idx := -1
		for i, r := range s.releases {
			if r.Version == version {
				idx = i
				break
			}
		}
		if idx < 0 {
			return fmt.Errorf("%w: %q", ErrUnknownRelease, version)
		}
		if len(s.releases) == 1 {
			return fmt.Errorf("%w: cannot remove the only release", ErrBadPhase)
		}
		s.releases = append(s.releases[:idx], s.releases[idx+1:]...)
		if len(s.releases) < 2 && (s.phase == PhaseObservation || s.phase == PhaseParallel) {
			s.phase = PhaseNewOnly
		}
		return nil
	})
}

// snapshot returns the state a request handler works with. The returned
// slice is shared with the immutable state value and must not be mutated.
func (e *Engine) snapshot() ([]Endpoint, Phase) {
	s := e.state.Load()
	return s.releases, s.phase
}

// Mode returns the current fan-out mode.
func (e *Engine) Mode() Mode {
	return e.state.Load().mode
}

// SetMode reconfigures the fan-out mode online — §4.2's "the number of
// responses and the timeout can be changed dynamically". quorum applies
// to ModeDynamic and is ignored otherwise.
func (e *Engine) SetMode(mode Mode, quorum int) error {
	return e.updateState(lifecycle.CauseManual, func(s *engineState) error {
		switch {
		case mode == ModeDynamic:
			if quorum == 0 {
				quorum = 1
			}
			if quorum < 1 || quorum > len(s.releases) {
				return fmt.Errorf("%w: quorum %d with %d releases", ErrBadConfig, quorum, len(s.releases))
			}
		case mode.Known():
		default:
			return fmt.Errorf("%w: mode %v", ErrBadConfig, mode)
		}
		s.mode = mode
		if mode == ModeDynamic {
			s.quorum = quorum
		}
		return nil
	})
}

// Timeout returns the current fan-out deadline.
func (e *Engine) Timeout() time.Duration {
	return e.state.Load().timeout
}

// SetTimeout reconfigures the fan-out deadline online.
func (e *Engine) SetTimeout(d time.Duration) error {
	if d <= 0 {
		return fmt.Errorf("%w: timeout %v", ErrBadConfig, d)
	}
	return e.updateState(lifecycle.CauseManual, func(s *engineState) error {
		s.timeout = d
		return nil
	})
}

// ---------------------------------------------------------------------------
// Health checking and recovery (§4.1's management subsystem)

// Health reports one release's probe outcome.
type Health struct {
	Release string
	URL     string
	Up      bool
	Err     error
}

// CheckHealth probes every deployed release's /healthz endpoint, updates
// the engine's availability marks (a release marked down is skipped by
// fan-outs until it recovers), and returns the probe results.
func (e *Engine) CheckHealth(ctx context.Context) []Health {
	releases, _ := e.snapshot()
	results := make([]Health, len(releases))
	var wg sync.WaitGroup
	for i, rel := range releases {
		i, rel := i, rel
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = e.probe(ctx, rel)
		}()
	}
	wg.Wait()

	_ = e.updateState(lifecycle.CauseTopology, func(s *engineState) error {
		for _, h := range results {
			if h.Up {
				delete(s.down, h.Release)
				continue
			}
			if s.down == nil {
				s.down = make(map[string]bool)
			}
			s.down[h.Release] = true
		}
		return nil
	})
	return results
}

func (e *Engine) probe(ctx context.Context, rel Endpoint) Health {
	h := Health{Release: rel.Version, URL: rel.URL}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rel.URL+"/healthz", nil)
	if err != nil {
		h.Err = err
		return h
	}
	resp, err := e.client.Do(req)
	if err != nil {
		h.Err = err
		return h
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1024))
	if resp.StatusCode != http.StatusOK {
		h.Err = fmt.Errorf("core: health probe of %s: HTTP %d", rel.Version, resp.StatusCode)
		return h
	}
	h.Up = true
	return h
}

// Down reports whether a release is currently marked unavailable.
func (e *Engine) Down(version string) bool {
	return e.state.Load().down[version]
}

// StartHealthChecks runs CheckHealth every interval until the returned
// stop function is called. The loop is owned (lifecycle.Every): stop
// interrupts an in-flight probe round and blocks until the prober
// goroutine has exited.
func (e *Engine) StartHealthChecks(interval time.Duration) (stop func(), err error) {
	if interval <= 0 {
		return nil, fmt.Errorf("%w: health-check interval %v", ErrBadConfig, interval)
	}
	return lifecycle.Every(interval, func(ctx context.Context) {
		e.CheckHealth(ctx)
		if e.healthCheckDone != nil {
			e.healthCheckDone()
		}
	}), nil
}

// ---------------------------------------------------------------------------
// Request handling

// Handler returns the full HTTP surface: the SOAP endpoint at "/", the
// extended WSDL at "/wsdl" and a liveness probe at "/healthz".
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", e)
	mux.HandleFunc("/wsdl", e.serveWSDL)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte("ok"))
	})
	return mux
}

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

// dispatch selects the phase's targets and delivery authority and hands
// the fan-out to the dispatch layer. The dispatch deadline derives from
// the consumer's request context: a disconnected client cancels its
// in-flight fan-out (and the aborted outcome is not charged to the
// releases), while early-delivery modes detach after responding so
// monitoring still collects every release's behaviour.
//
// dispatch takes ownership of envBuf, the pooled buffer holding the
// request envelope; ownership transfers into dispatch.Request.EnvelopeBuf
// and the dispatcher's completion recycles it.
//
//wsu:owns envBuf
//wsu:allow poolcheck -- envBuf's ownership transfers into dispatch.Request.EnvelopeBuf; the dispatcher's completion recycles it
func (e *Engine) dispatch(ctx context.Context, envBuf *pool.Buf, operation string, override adjudicate.Adjudicator) (adjudicate.Reply, error) {
	st := e.state.Load()
	releases := st.releases
	oldest, newest := releases[0], releases[len(releases)-1]

	var targets []Endpoint
	switch st.phase {
	case PhaseOldOnly:
		targets = releases[:1:1]
	case PhaseNewOnly:
		targets = releases[len(releases)-1:]
	default:
		targets = releases
	}
	// Health-checked releases marked down are skipped (the management
	// subsystem's recovery handling, §4.1) — unless that would leave no
	// targets, in which case the calls proceed and fail honestly.
	if len(st.down) > 0 {
		up := targets[:0:0]
		for _, t := range targets {
			if !st.down[t.Version] {
				up = append(up, t)
			}
		}
		if len(up) > 0 {
			targets = up
		}
	}

	rule := st.deliver
	if override != nil {
		rule = deliveryRule(st.phase, oldest, newest, override)
	}
	return e.disp.Do(dispatch.Request{
		Parent:      ctx,
		Targets:     targets,
		Mode:        st.mode,
		Quorum:      st.quorum,
		Timeout:     st.timeout,
		Operation:   operation,
		Envelope:    envBuf.B,
		EnvelopeBuf: envBuf,
		Deliver:     rule,
		Oldest:      oldest,
		Newest:      newest,
	})
}

// internReleases stamps each release with the monitor's interned dense
// index (threaded through dispatch as Endpoint.MonRef), so the outcome
// hook aggregates observations by slice index instead of name lookups.
// Interning is idempotent and monotonic; this runs on the management
// path only, at state publication.
func (e *Engine) internReleases(releases []Endpoint) {
	for i := range releases {
		releases[i].MonRef = int32(e.mon.Intern(releases[i].Version))
	}
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
		Time:      time.Now(),
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
			// Body aliases the reply's pooled response buffer, which the
			// dispatcher recycles the moment this hook returns; the
			// monitor records its length and keeps nothing of it.
			Body: r.Body,
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

// ---------------------------------------------------------------------------
// Registry integration

// RegistryEntry builds the registry entry describing this engine's
// service surface (the §6.2 "publish the confidence in the UDDI archive"
// path). name is the service name; endpoint is the engine's public URL.
func (e *Engine) RegistryEntry(name, endpoint string) registry.Entry {
	entry := registry.Entry{
		Name:     name,
		Version:  e.newestVersion(),
		URL:      endpoint,
		Provider: "wsupgrade-middleware",
	}
	if e.cfg.Contract != nil && e.inference != nil {
		for _, op := range e.cfg.Contract.Operations {
			if conf, err := e.publishedConfidence(op.Name); err == nil {
				entry.Confidence = append(entry.Confidence, registry.OperationConfidence{
					Name:  op.Name,
					Value: round6(conf),
				})
			}
		}
	}
	return entry
}

func (e *Engine) newestVersion() string {
	releases := e.state.Load().releases
	return releases[len(releases)-1].Version
}

func round6(v float64) float64 {
	return math.Round(v*1e6) / 1e6
}

// Stats returns the monitoring stats of one release.
func (e *Engine) Stats(version string) (monitor.ReleaseStats, error) {
	return e.mon.Stats(version)
}
