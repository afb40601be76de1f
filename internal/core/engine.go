package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
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
	"wsupgrade/internal/protocol"
	"wsupgrade/internal/protocol/soapcodec"
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
	// Timeout bounds each fan-out (default 2 s); in ModeSequential it
	// bounds each release call.
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
	// PhaseParallel; PhaseObservation and PhaseParallel need ≥2
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
	// Begin injects the release transport: a shared wire client's Begin
	// (the fleet's cross-unit pool, which then brings its own fallback
	// and Dial) or scripted releases. The engine binds Retry into every
	// call. Nil means the engine builds and owns a wire client.
	Begin func(ctx context.Context, url, contentType string, body []byte, policy httpx.RetryPolicy) wire.Call
	// Clock is the demand path's time source: the dispatch layer's
	// (dispatch.Config.Clock) and the monitor records' timestamps; nil
	// means the wall clock.
	Clock dispatch.Clock
	// Seed drives adjudication tie-breaking.
	Seed uint64
	// Store streams the event log as JSONL (the architecture's
	// "Data Base"); nil disables. It configures the monitor the engine
	// builds: setting it together with Monitor is rejected.
	Store io.Writer
}

// Engine is the managed-upgrade middleware. It implements http.Handler
// (the SOAP endpoint); Handler() adds /wsdl and /healthz.
// Construct with New; call Close to drain background monitoring work.
type Engine struct {
	cfg Config
	// wire is the release transport the engine built because cfg.Begin
	// was nil (nil otherwise); client is its net/http fallback for
	// non-http:// endpoints and the /healthz probe client. Close shuts
	// down whichever of them the engine built; the others belong to the
	// caller or a fleet.
	wire   *wire.Client
	client *http.Client

	adjudic   adjudicate.Adjudicator
	oracle    oracle.Oracle
	mon       *monitor.Monitor
	inference *memoInference // nil without an inference configuration
	disp      *dispatch.Dispatcher
	now       func() time.Time // cfg.Clock's Now, or the wall clock's

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
}

var _ http.Handler = (*Engine)(nil)

// New validates the configuration and builds an engine.
func New(cfg Config) (*Engine, error) {
	if len(cfg.Releases) == 0 {
		return nil, fmt.Errorf("%w: no releases", ErrBadConfig)
	}
	for i, r := range cfg.Releases {
		if err := checkRelease(cfg.Releases[:i], r); err != nil {
			return nil, err
		}
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
	quorum, err := checkMode(cfg.Mode, cfg.Quorum, len(cfg.Releases))
	if err != nil {
		return nil, err
	}
	cfg.Quorum = quorum
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
		now:     time.Now,
	}
	if cfg.Clock != nil {
		e.now = cfg.Clock.Now
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
	e.publish(&engineState{
		releases: append([]Endpoint(nil), cfg.Releases...),
		phase:    cfg.InitialPhase,
		mode:     cfg.Mode,
		quorum:   cfg.Quorum,
		timeout:  cfg.Timeout,
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
	begin := cfg.Begin
	if begin == nil {
		e.wire = wire.NewClient(wire.Options{
			Dial:     cfg.Dial,
			Timeout:  cfg.Timeout + 500*time.Millisecond,
			Fallback: e.client,
		})
		begin = e.wire.Begin
	}
	// The retry policy is bound into the transport here, once: dispatch
	// begins calls and never sees a policy.
	retry := cfg.Retry
	e.disp = dispatch.New(dispatch.Config{
		Begin: func(ctx context.Context, url, contentType string, body []byte) wire.Call {
			//wsu:allow poolcheck -- the begun call goes to dispatch, which ends it exactly once
			return begin(ctx, url, contentType, body, retry)
		},
		Clock:     cfg.Clock,
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
	if e.wire != nil {
		_ = e.wire.Close()
	}
	return err
}

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

// Monitor exposes the monitoring subsystem.
func (e *Engine) Monitor() *monitor.Monitor { return e.mon }

// Stats returns the monitoring stats of one release.
func (e *Engine) Stats(version string) (monitor.ReleaseStats, error) {
	return e.mon.Stats(version)
}
