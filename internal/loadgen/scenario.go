package loadgen

// The scenario runner pairs the load generator with the releases' fault
// model (service.FaultPlan: §5.2.1's CR/ER/NER outcomes and eq. 7's
// exponential execution time): each scenario boots a real fleet-shaped
// deployment over TCP (releases on restartable listeners, a fleet router
// in front), drives it with Run, and checks the paper's dependability
// claims as machine-verdicted assertions. Scenarios are what CI runs: a
// failing claim is a failing exit code, and the full evidence ships as
// JSON.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/core"
	"wsupgrade/internal/fleet"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/protocol"
	"wsupgrade/internal/protocol/jsoncodec"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/service"
	"wsupgrade/internal/stats"
)

// ErrScenarioFailed reports a scenario whose assertions did not hold.
var ErrScenarioFailed = fmt.Errorf("loadgen: scenario failed")

// ErrUnknownScenario reports a scenario name outside Scenarios().
var ErrUnknownScenario = fmt.Errorf("loadgen: unknown scenario")

// ScenarioOptions parameterizes a scenario run.
type ScenarioOptions struct {
	// Requests scales the demand-count-driven scenarios (default 400).
	Requests int
	// Duration bounds the time-driven scenarios (soak; default 8s).
	Duration time.Duration
	// Concurrency is the consumer-side worker count (default 4).
	Concurrency int
	// Seed fixes the injection and request streams (default 1).
	Seed uint64
	// Log receives progress lines (nil discards them).
	Log io.Writer
}

func (o *ScenarioOptions) normalize() {
	if o.Requests <= 0 {
		o.Requests = 400
	}
	if o.Duration <= 0 {
		o.Duration = 8 * time.Second
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

func (o ScenarioOptions) logf(format string, args ...interface{}) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// UnitReport snapshots one upgrade unit's management view after load.
type UnitReport struct {
	Unit  string `json:"unit"`
	Phase string `json:"phase"`
	// OldConfidence / NewConfidence are the white-box P(pfd ≤ T).
	OldConfidence float64 `json:"oldConfidence"`
	NewConfidence float64 `json:"newConfidence"`
	// OldAvailConfidence / NewAvailConfidence are the black-box
	// P(p_no-response ≤ T) availability confidences (§6.1).
	OldAvailConfidence float64 `json:"oldAvailConfidence"`
	NewAvailConfidence float64 `json:"newAvailConfidence"`
	JointDemands       int     `json:"jointDemands"`
	NewDemands         int     `json:"newDemands"`
	NewResponses       int     `json:"newResponses"`
	NewJudgedFailures  int     `json:"newJudgedFailures"`
}

// SoakStats bounds the soak scenario's resource envelope.
type SoakStats struct {
	GOMAXPROCS       int    `json:"gomaxprocs"`
	GoroutinesBefore int    `json:"goroutinesBefore"`
	GoroutinesPeak   int    `json:"goroutinesPeak"`
	GoroutinesAfter  int    `json:"goroutinesAfter"`
	HeapBeforeKB     uint64 `json:"heapBeforeKb"`
	HeapAfterKB      uint64 `json:"heapAfterKb"`
	RSSBeforeKB      int    `json:"rssBeforeKb"`
	RSSAfterKB       int    `json:"rssAfterKb"`
}

// ScenarioResult is one scenario's full evidence, JSON-serializable.
type ScenarioResult struct {
	Scenario string   `json:"scenario"`
	Pass     bool     `json:"pass"`
	Failures []string `json:"failures,omitempty"`
	// Load is the (merged) consumer-side load report.
	Load *Report `json:"load,omitempty"`
	// Batches carries per-phase load reports for staged scenarios.
	Batches []Report `json:"batches,omitempty"`
	// Units is the management view per upgrade unit.
	Units []UnitReport `json:"units,omitempty"`
	// Injected counts the faulty new release's demands per unit: by
	// answered outcome kind (CR, ER, NER) and, under "abandoned", those
	// the mediator gave up on during the injected latency.
	Injected map[string]map[string]int `json:"injected,omitempty"`
	// Soak is the resource envelope (soak scenario only).
	Soak *SoakStats `json:"soak,omitempty"`
	// Saturation is the open-loop ramp's knee (saturation scenario only).
	Saturation *SaturationReport `json:"saturation,omitempty"`
}

// WriteJSON writes the result as indented JSON.
func (r ScenarioResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// check appends a failure unless cond holds.
func (r *ScenarioResult) check(cond bool, format string, args ...interface{}) {
	if !cond {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

type scenarioFunc func(ctx context.Context, opts ScenarioOptions) (ScenarioResult, error)

var scenarios = map[string]scenarioFunc{
	"corrupt-never-wins":      corruptNeverWins,
	"corrupt-never-wins-json": corruptNeverWinsJSON,
	"omission-convergence":    omissionConvergence,
	"crash-restart":           crashRestart,
	"mixed-fault":             mixedFault,
	"saturation":              saturation,
	"soak":                    soak,
}

// Scenarios lists the runnable scenario names, sorted.
func Scenarios() []string {
	names := make([]string, 0, len(scenarios))
	for name := range scenarios {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// RunScenario executes one named scenario. The error is ErrScenarioFailed
// when assertions failed, something else when the run itself broke.
func RunScenario(ctx context.Context, name string, opts ScenarioOptions) (ScenarioResult, error) {
	fn, ok := scenarios[name]
	if !ok {
		return ScenarioResult{}, fmt.Errorf("%w: %q (have %s)", ErrUnknownScenario, name, strings.Join(Scenarios(), ", "))
	}
	opts.normalize()
	res, err := fn(ctx, opts)
	res.Scenario = name
	res.Pass = err == nil && len(res.Failures) == 0
	if err == nil && !res.Pass {
		err = fmt.Errorf("%w: %s: %s", ErrScenarioFailed, name, strings.Join(res.Failures, "; "))
	}
	return res, err
}

// ---------------------------------------------------------------------------
// Deployment scaffolding

// releaseSpec is one hosted release: a demo service at a version and
// its fault plan (deploy seeds it).
type releaseSpec struct {
	version string
	plan    service.FaultPlan
}

// unitSpec is one upgrade unit: releases plus engine knobs.
type unitSpec struct {
	name string
	// protocol selects the unit's gateway codec: "" or "soap" for the
	// SOAP mediator, "json" for the REST/JSON gateway over the same
	// dispatch core.
	protocol string
	old      releaseSpec
	new      releaseSpec
	timeout  time.Duration
	policy   *core.PolicyConfig
	// judge is the unit's oracle; nil is the Reference oracle on the
	// old release.
	judge oracle.Oracle
}

// hostedUnit is a booted unitSpec with handles for chaos control.
type hostedUnit struct {
	name   string
	oldSrv *releaseServer
	newSrv *releaseServer
	newRel *service.Release // nil when the new release has no fault plan
}

// releaseServer hosts a release on a restartable listener: stop is the
// §5.1 crash failure (active connections are severed, the port stops
// accepting), start after a stop is the restart, on the same address,
// so deployed endpoint URLs stay valid across the crash.
type releaseServer struct {
	handler http.Handler

	mu   sync.Mutex
	addr string // pinned on the first start
	srv  *http.Server
}

// start binds the listener (first on an ephemeral loopback port, then
// on the pinned address) and serves until stop.
func (s *releaseServer) start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv != nil {
		return fmt.Errorf("loadgen: release server already running on %s", s.addr)
	}
	addr := s.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	// The previous incarnation's socket can linger briefly; retry the
	// pinned address instead of failing the restart.
	for attempt := 0; attempt < 50; attempt++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("loadgen: binding %s: %w", addr, err)
	}
	s.addr = ln.Addr().String()
	s.srv = &http.Server{Handler: s.handler, ReadHeaderTimeout: 10 * time.Second}
	srv := s.srv
	go func() { _ = srv.Serve(ln) }()
	return nil
}

// url is the server's base URL, stable across stop/start cycles.
func (s *releaseServer) url() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return "http://" + s.addr
}

// stop crashes the server: the listener closes and every active
// connection is severed at once (no draining: this is a failure, not a
// shutdown). Idempotent.
func (s *releaseServer) stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv != nil {
		_ = s.srv.Close()
		s.srv = nil
	}
}

// deployment is a fleet-shaped system under test on real TCP.
type deployment struct {
	fleet     *fleet.Fleet
	units     map[string]*hostedUnit
	baseURL   string
	closers   []func()
	closeOnce sync.Once
}

// close tears the deployment down in reverse boot order; idempotent so
// scenarios can close eagerly and still defer it.
func (d *deployment) close() {
	d.closeOnce.Do(func() {
		for i := len(d.closers) - 1; i >= 0; i-- {
			d.closers[i]()
		}
	})
}

// unitURL returns the consumer-facing endpoint of a unit.
func (d *deployment) unitURL(name string) string {
	return d.baseURL + "/" + name + "/"
}

// engine returns a unit's management interface.
func (d *deployment) engine(name string) *core.Engine {
	u, err := d.fleet.Unit(name)
	if err != nil {
		panic(err) // deployment built the unit; absence is a bug
	}
	return u.Engine()
}

// whiteBox is the scenario-scale inference grid: coarser than the root
// package Examples' for speed, still plenty for ±0.05 confidence
// assertions.
func whiteBox() *bayes.WhiteBoxConfig {
	prior := stats.ScaledBeta{Alpha: 1, Beta: 3, Upper: 0.3}
	return &bayes.WhiteBoxConfig{
		PriorA: prior, PriorB: prior,
		GridA: 40, GridB: 40, GridC: 10, GridAB: 48,
	}
}

// deploy boots the units: each release on its own releaseServer, the
// fleet router on one listener, everything torn down by close().
func deploy(seed uint64, specs ...unitSpec) (*deployment, error) {
	d := &deployment{units: make(map[string]*hostedUnit)}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()

	var unitConfigs []fleet.UnitConfig
	for i, spec := range specs {
		hu := &hostedUnit{name: spec.name}
		endpoints := make([]core.Endpoint, 0, 2)
		for j, rel := range []releaseSpec{spec.old, spec.new} {
			plan := rel.plan
			plan.Seed = seed + uint64(i*2+j)
			release, err := service.New(service.DemoContract(rel.version), service.DemoBehaviours(), plan)
			if err != nil {
				return nil, err
			}
			srv := &releaseServer{handler: release.Handler()}
			if err := srv.start(); err != nil {
				return nil, err
			}
			d.closers = append(d.closers, srv.stop)
			if j == 0 {
				hu.oldSrv = srv
			} else {
				hu.newSrv = srv
				if rel.plan != (service.FaultPlan{}) {
					hu.newRel = release
				}
			}
			endpoints = append(endpoints, core.Endpoint{Version: rel.version, URL: srv.url()})
		}
		d.units[spec.name] = hu
		var codec protocol.Codec // nil: SOAP
		if spec.protocol == "json" {
			codec = jsoncodec.Default
		}
		judge := spec.judge
		if judge == nil {
			judge = oracle.Reference{Release: spec.old.version, Codec: codec}
		}
		unitConfigs = append(unitConfigs, fleet.UnitConfig{
			Name: spec.name,
			Engine: core.Config{
				Codec:            codec,
				Releases:         endpoints,
				Timeout:          spec.timeout,
				InitialPhase:     core.PhaseObservation,
				Oracle:           judge,
				Inference:        whiteBox(),
				Policy:           spec.policy,
				ConfidenceTarget: 0.05,
				Seed:             seed,
			},
		})
	}

	fl, err := fleet.New(fleet.Config{Units: unitConfigs})
	if err != nil {
		return nil, err
	}
	d.fleet = fl
	d.closers = append(d.closers, func() { _ = fl.Close() })

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: fl, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = httpSrv.Serve(ln) }()
	d.closers = append(d.closers, func() {
		// Drain in-flight handlers before the fleet behind them closes:
		// Close() cuts connections but does not wait for handlers, so a
		// dispatch could still be running when fleet.Close tears the
		// engines down. Engine timeouts bound every handler, so Shutdown
		// converges; Close is the hung-handler fallback.
		sdCtx, sdCancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer sdCancel()
		if httpSrv.Shutdown(sdCtx) != nil {
			_ = httpSrv.Close()
		}
	})
	d.baseURL = "http://" + ln.Addr().String()
	ok = true
	return d, nil
}

// unitReport assembles the management view of one unit.
func unitReport(d *deployment, name, oldVersion, newVersion string) UnitReport {
	eng := d.engine(name)
	rep := UnitReport{Unit: name, Phase: eng.Phase().String()}
	if conf, err := eng.Confidence(""); err == nil {
		rep.OldConfidence = conf.Old
		rep.NewConfidence = conf.New
	}
	if c, err := eng.AvailabilityConfidence(oldVersion, 0.05); err == nil {
		rep.OldAvailConfidence = c
	}
	if c, err := eng.AvailabilityConfidence(newVersion, 0.05); err == nil {
		rep.NewAvailConfidence = c
	}
	rep.JointDemands = eng.Monitor().Joint().N
	if s, err := eng.Monitor().Stats(newVersion); err == nil {
		rep.NewDemands = s.Demands
		rep.NewResponses = s.Responses
		rep.NewJudgedFailures = s.JudgedFailures
	}
	return rep
}

// abandoned is the Injected key of the demands a release was sent but
// never answered, because the mediator gave up during the injected
// latency: the omissions of eq. 7's timeout.
const abandoned = "abandoned"

// injected collects each faulty new release's counts for the result.
func injected(d *deployment) map[string]map[string]int {
	out := make(map[string]map[string]int)
	for name, hu := range d.units {
		if hu.newRel == nil {
			continue
		}
		kinds := make(map[string]int)
		answered := 0
		for kind, n := range hu.newRel.Injected() {
			kinds[kind.String()] = n
			answered += n
		}
		kinds[abandoned] = hu.newRel.Calls() - answered
		out[name] = kinds
	}
	return out
}

// omissionTimeout is the omission scenarios' unit timeout, and omits10
// their new release's plan: eq. 7's exponential execution time with
// mean omissionTimeout/ln 10, so P(no reply before the timeout) =
// e^−ln 10 = 0.1. Every reply of that release is slower too, as the
// paper's model has it.
const omissionTimeout = 100 * time.Millisecond

var omits10 = service.FaultPlan{MeanLatency: time.Duration(math.Round(float64(omissionTimeout) / math.Ln10))}

// corrupt is a release whose every reply is a non-evident failure: the
// demo behaviours' plausible wrong answer.
var corrupt = service.FaultPlan{Profile: relmodel.Profile{NER: 1}}

// ---------------------------------------------------------------------------
// Scenarios

// corruptNeverWins: the new release returns well-formed but WRONG
// responses on every demand (§5.1's non-evident failure, at rate 1).
// The claim under test is the §4.1 upgrade-phase contract: during
// Observation the old release's response is always the one delivered,
// the oracle charges every corrupt response to the new release, and the
// automatic switch policy never promotes it — so consumers never see a
// wrong answer even though every single new-release response is wrong.
func corruptNeverWins(ctx context.Context, opts ScenarioOptions) (ScenarioResult, error) {
	return corruptNeverWinsOn(ctx, opts, "soap")
}

// corruptNeverWinsJSON is the same claim driven end to end through the
// REST/JSON gateway: JSON releases, JSON wrong answers, JSON demands —
// the adjudication guarantees must be protocol-independent.
func corruptNeverWinsJSON(ctx context.Context, opts ScenarioOptions) (ScenarioResult, error) {
	return corruptNeverWinsOn(ctx, opts, "json")
}

// corruptUnit is the corrupt-never-wins unit: old release 1.0, corrupt
// new release 1.1, and a switch policy free to promote it.
func corruptUnit(protocol string) unitSpec {
	return unitSpec{
		name:     "svc",
		protocol: protocol,
		old:      releaseSpec{version: "1.0"},
		new:      releaseSpec{version: "1.1", plan: corrupt},
		policy: &core.PolicyConfig{
			Criterion:  bayes.Criterion3{Confidence: 0.95},
			CheckEvery: 50,
			MinDemands: 100,
		},
	}
}

func corruptNeverWinsOn(ctx context.Context, opts ScenarioOptions, protocol string) (ScenarioResult, error) {
	var res ScenarioResult
	const oldV, newV = "1.0", "1.1"
	d, err := deploy(opts.Seed, corruptUnit(protocol))
	if err != nil {
		return res, err
	}
	defer d.close()

	opts.logf("corrupt-never-wins (%s): driving %d demands at %s", protocol, opts.Requests, d.unitURL("svc"))
	load, err := Run(ctx, Options{
		URLs:        []string{d.unitURL("svc")},
		Protocol:    protocol,
		Concurrency: opts.Concurrency,
		Requests:    opts.Requests,
		Seed:        opts.Seed,
	})
	if err != nil {
		return res, err
	}
	res.Load = &load
	unit := unitReport(d, "svc", oldV, newV)
	res.Units = []UnitReport{unit}
	res.Injected = injected(d)

	res.check(load.Requests == opts.Requests, "drove %d demands, want %d", load.Requests, opts.Requests)
	res.check(load.Verdicts[VerdictOK] == load.Requests,
		"verdicts %v: every demand must deliver the correct (old) response", load.Verdicts)
	res.check(load.Verdicts[VerdictWrong] == 0,
		"%d corrupt responses reached a consumer", load.Verdicts[VerdictWrong])
	res.check(load.Winners[newV] == 0,
		"corrupt release %s won adjudication %d times", newV, load.Winners[newV])
	res.check(load.Winners[oldV] == load.Requests,
		"old release delivered %d of %d", load.Winners[oldV], load.Requests)
	res.check(unit.Phase == core.PhaseObservation.String(),
		"phase = %s: the switch policy promoted a 100%%-corrupt release", unit.Phase)
	res.check(unit.NewJudgedFailures >= unit.NewDemands*9/10,
		"oracle judged only %d of %d corrupt responses as failures", unit.NewJudgedFailures, unit.NewDemands)
	res.check(unit.NewConfidence < 0.5,
		"confidence in the corrupt release = %.3f", unit.NewConfidence)
	return res, nil
}

// omissionConvergence: the new release omits 10% of its responses
// (eq. 7: its execution time outlasts the engine timeout). Consumers —
// served the old release during Observation — must not notice, while
// the monitoring subsystem must converge: high confidence in the old
// release on both the white-box (correctness) and availability axes,
// visibly depressed availability confidence in the omitting new
// release.
func omissionConvergence(ctx context.Context, opts ScenarioOptions) (ScenarioResult, error) {
	var res ScenarioResult
	const oldV, newV = "1.0", "1.1"
	d, err := deploy(opts.Seed, unitSpec{
		name:    "svc",
		old:     releaseSpec{version: oldV},
		new:     releaseSpec{version: newV, plan: omits10},
		timeout: omissionTimeout,
	})
	if err != nil {
		return res, err
	}
	defer d.close()

	opts.logf("omission-convergence: driving %d demands at %s", opts.Requests, d.unitURL("svc"))
	load, err := Run(ctx, Options{
		URLs:        []string{d.unitURL("svc")},
		Concurrency: opts.Concurrency,
		Requests:    opts.Requests,
		Seed:        opts.Seed,
	})
	if err != nil {
		return res, err
	}
	res.Load = &load
	unit := unitReport(d, "svc", oldV, newV)
	res.Units = []UnitReport{unit}
	res.Injected = injected(d)

	omitted := res.Injected["svc"][abandoned]
	res.check(load.Verdicts[VerdictOK] == load.Requests,
		"verdicts %v: omission on the observed release leaked to consumers", load.Verdicts)
	res.check(omitted > opts.Requests/20 && omitted < opts.Requests/4,
		"injected %d omissions over %d demands — outside the plausible 10%% band", omitted, opts.Requests)
	res.check(unit.NewResponses < unit.NewDemands,
		"monitor saw %d/%d responses from the omitting release — omissions unobserved", unit.NewResponses, unit.NewDemands)
	res.check(unit.JointDemands >= opts.Requests*6/10,
		"white-box inference got %d joint observations of %d demands", unit.JointDemands, opts.Requests)
	res.check(unit.OldConfidence >= 0.9,
		"white-box confidence in the old release = %.3f after %d joint demands", unit.OldConfidence, unit.JointDemands)
	res.check(unit.OldAvailConfidence >= 0.9,
		"availability confidence in the old release = %.3f", unit.OldAvailConfidence)
	res.check(unit.NewAvailConfidence <= 0.5,
		"availability confidence in the 10%%-omitting release = %.3f — should be depressed", unit.NewAvailConfidence)
	res.check(unit.Phase == core.PhaseObservation.String(), "phase drifted to %s", unit.Phase)
	return res, nil
}

// crashRestart: the new release's listener crashes mid-campaign and
// restarts at the same address. Consumers must be shielded throughout
// (the old release delivers), and the monitor must show the new release
// going dark and then recovering — §5.1's crash failure end to end.
func crashRestart(ctx context.Context, opts ScenarioOptions) (ScenarioResult, error) {
	var res ScenarioResult
	const oldV, newV = "1.0", "1.1"
	d, err := deploy(opts.Seed, unitSpec{
		name:    "svc",
		old:     releaseSpec{version: oldV},
		new:     releaseSpec{version: newV},
		timeout: 500 * time.Millisecond,
	})
	if err != nil {
		return res, err
	}
	defer d.close()

	batch := opts.Requests / 3
	if batch < 30 {
		batch = 30
	}
	run := func(stage string) (Report, error) {
		opts.logf("crash-restart: %s — %d demands", stage, batch)
		return Run(ctx, Options{
			URLs:        []string{d.unitURL("svc")},
			Concurrency: opts.Concurrency,
			Requests:    batch,
			Seed:        opts.Seed,
		})
	}
	eng := d.engine("svc")
	newResponses := func() int {
		s, err := eng.Monitor().Stats(newV)
		if err != nil {
			return -1
		}
		return s.Responses
	}

	before, err := run("baseline")
	if err != nil {
		return res, err
	}
	afterBaseline := newResponses()

	d.units["svc"].newSrv.stop()
	during, err := run("new release crashed")
	if err != nil {
		return res, err
	}
	afterCrash := newResponses()

	if err := d.units["svc"].newSrv.start(); err != nil {
		return res, fmt.Errorf("restarting new release: %w", err)
	}
	after, err := run("new release restarted")
	if err != nil {
		return res, err
	}
	afterRestart := newResponses()

	res.Batches = []Report{before, during, after}
	unit := unitReport(d, "svc", oldV, newV)
	res.Units = []UnitReport{unit}

	for i, rep := range res.Batches {
		stage := []string{"baseline", "crash", "restart"}[i]
		res.check(rep.Verdicts[VerdictOK] == rep.Requests,
			"%s batch verdicts %v: the crash leaked to consumers", stage, rep.Verdicts)
		res.check(rep.Winners[newV] == 0, "%s batch: crashed-observee %s delivered %d responses", stage, newV, rep.Winners[newV])
	}
	res.check(afterBaseline > 0, "monitor saw no new-release responses before the crash")
	res.check(afterCrash-afterBaseline <= batch/10,
		"monitor counted %d new-release responses while its listener was down", afterCrash-afterBaseline)
	res.check(afterRestart-afterCrash >= batch*8/10,
		"new release recovered only %d responses of %d post-restart demands", afterRestart-afterCrash, batch)
	return res, nil
}

// soak: a two-unit fleet under sustained mixed load with mild background
// chaos (a 1 ms mean execution time and 2% wrong answers on the
// observed releases). The claims are resource claims: goroutine count
// returns to its pre-load baseline, the heap and RSS envelopes stay
// bounded — the system can run indefinitely. CI runs this under -race
// at several GOMAXPROCS values.
func soak(ctx context.Context, opts ScenarioOptions) (ScenarioResult, error) {
	var res ScenarioResult
	mild := service.FaultPlan{Profile: relmodel.Profile{CR: 0.98, NER: 0.02}, MeanLatency: time.Millisecond}
	d, err := deploy(opts.Seed,
		unitSpec{name: "flights", old: releaseSpec{version: "1.0"}, new: releaseSpec{version: "1.1", plan: mild}},
		unitSpec{name: "hotels", old: releaseSpec{version: "2.0"}, new: releaseSpec{version: "2.1", plan: mild}},
	)
	if err != nil {
		return res, err
	}
	defer d.close()

	soakStats := &SoakStats{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	res.Soak = soakStats
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	soakStats.HeapBeforeKB = ms.HeapAlloc >> 10
	soakStats.RSSBeforeKB = readRSSKB()
	soakStats.GoroutinesBefore = runtime.NumGoroutine()

	// Sample the goroutine high-water mark while the load runs.
	sampleDone := make(chan struct{})
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		ticker := time.NewTicker(50 * time.Millisecond)
		defer ticker.Stop()
		for {
			select {
			case <-sampleDone:
				return
			case <-ticker.C:
				if n := runtime.NumGoroutine(); n > soakStats.GoroutinesPeak {
					soakStats.GoroutinesPeak = n
				}
			}
		}
	}()

	conc := opts.Concurrency
	if conc < 8 {
		conc = 8
	}
	opts.logf("soak: %v of closed-loop load, %d workers, 2 units, GOMAXPROCS=%d",
		opts.Duration, conc, soakStats.GOMAXPROCS)
	load, err := Run(ctx, Options{
		URLs:        []string{d.unitURL("flights"), d.unitURL("hotels")},
		Concurrency: conc,
		Duration:    opts.Duration,
		Seed:        opts.Seed,
	})
	close(sampleDone)
	sampleWG.Wait()
	if err != nil {
		return res, err
	}
	res.Load = &load
	res.Units = []UnitReport{
		unitReport(d, "flights", "1.0", "1.1"),
		unitReport(d, "hotels", "2.0", "2.1"),
	}
	res.Injected = injected(d)

	// Tear the system down, then require the goroutine count to settle
	// back to its pre-deployment-load baseline.
	d.close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		soakStats.GoroutinesAfter = runtime.NumGoroutine()
		if soakStats.GoroutinesAfter <= soakStats.GoroutinesBefore+4 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	runtime.ReadMemStats(&ms)
	soakStats.HeapAfterKB = ms.HeapAlloc >> 10
	soakStats.RSSAfterKB = readRSSKB()

	res.check(load.Requests > 0, "soak drove no demands")
	res.check(load.Verdicts[VerdictWrong] == 0,
		"%d corrupt responses leaked to consumers", load.Verdicts[VerdictWrong])
	res.check(load.Verdicts[VerdictTransport] == 0,
		"%d transport-level failures against a healthy fleet", load.Verdicts[VerdictTransport])
	res.check(load.Verdicts[VerdictOK] >= load.Requests*99/100,
		"verdicts %v: >1%% of demands degraded", load.Verdicts)
	res.check(soakStats.GoroutinesAfter <= soakStats.GoroutinesBefore+10,
		"goroutines %d → %d: load left goroutines behind", soakStats.GoroutinesBefore, soakStats.GoroutinesAfter)
	res.check(soakStats.GoroutinesPeak <= soakStats.GoroutinesBefore+8*conc+200,
		"goroutine peak %d (baseline %d, %d workers): unbounded fan-out", soakStats.GoroutinesPeak, soakStats.GoroutinesBefore, conc)
	res.check(soakStats.HeapAfterKB <= soakStats.HeapBeforeKB+(256<<10),
		"heap %dKB → %dKB: unbounded growth", soakStats.HeapBeforeKB, soakStats.HeapAfterKB)
	if soakStats.RSSBeforeKB > 0 && soakStats.RSSAfterKB > 0 {
		res.check(soakStats.RSSAfterKB <= soakStats.RSSBeforeKB+(768<<10),
			"RSS %dKB → %dKB: unbounded growth", soakStats.RSSBeforeKB, soakStats.RSSAfterKB)
	}
	return res, nil
}

// readRSSKB reads VmRSS from /proc/self/status; 0 when unavailable.
func readRSSKB() int {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			if kb, err := strconv.Atoi(fields[1]); err == nil {
				return kb
			}
		}
	}
	return 0
}
