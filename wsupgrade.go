// Package wsupgrade is the public API of the reproduction of
// "Dependable Composite Web Services with Components Upgraded Online"
// (Gorbenko, Kharchenko, Popov, Romanovsky — DSN/WADS 2004).
//
// It re-exports the building blocks a downstream user composes:
//
//   - Engine — the managed-upgrade middleware (§4): runs several releases
//     of a Web Service side by side, adjudicates their responses,
//     monitors dependability, and switches to the new release when the
//     Bayesian confidence criterion is met.
//   - WhiteBox / BlackBox — the confidence engines (§5.1) with the three
//     switch criteria of §5.1.1.2 and the imperfect-detection models of
//     §5.1.1.3.
//   - Registry — the UDDI-style registry with confidence publication and
//     upgrade notification (§6.2, §7.2).
//   - Composite — composite-service orchestration over upgrade-aware
//     component bindings (Figs 1 and 4).
//   - Service — a fault-injecting WS runtime standing in for real
//     third-party releases.
//   - The experiment harness that regenerates every table and figure of
//     the paper, the §5.2 availability/performance study on the engine
//     itself.
//
// The package's Examples run the paper's scenarios end to end on
// loopback listeners; DESIGN.md §7 has the per-experiment index.
package wsupgrade

import (
	"net/http"
	"time"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/bayes"
	"wsupgrade/internal/composite"
	"wsupgrade/internal/core"
	"wsupgrade/internal/fleet"
	"wsupgrade/internal/httpx"
	"wsupgrade/internal/lifecycle"
	"wsupgrade/internal/monitor"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/registry"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/repro"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/stats"
	"wsupgrade/internal/wsdl"
)

// ---------------------------------------------------------------------------
// Managed-upgrade middleware (the paper's contribution, §4).

// Engine is the managed-upgrade middleware; see core.Engine.
type Engine = core.Engine

// EngineConfig parameterizes the middleware.
type EngineConfig = core.Config

// Endpoint identifies one deployed release.
type Endpoint = core.Endpoint

// PolicyConfig is the automatic switch rule.
type PolicyConfig = core.PolicyConfig

// ConfidenceReport is a confidence snapshot for a release pair.
type ConfidenceReport = core.ConfidenceReport

// Phase is the upgrade lifecycle state.
type Phase = core.Phase

// Lifecycle phases (§3.3, §4.2).
const (
	PhaseOldOnly     = core.PhaseOldOnly
	PhaseObservation = core.PhaseObservation
	PhaseParallel    = core.PhaseParallel
	PhaseNewOnly     = core.PhaseNewOnly
)

// Mode is the fan-out strategy (§4.2 operating modes).
type Mode = core.Mode

// Operating modes.
const (
	ModeReliability    = core.ModeReliability
	ModeResponsiveness = core.ModeResponsiveness
	ModeDynamic        = core.ModeDynamic
	ModeSequential     = core.ModeSequential
)

// NewEngine builds a managed-upgrade middleware.
func NewEngine(cfg EngineConfig) (*Engine, error) { return core.New(cfg) }

// Transition is one observed lifecycle transition; see
// Engine.OnTransition and Fleet.OnTransition.
type Transition = lifecycle.Transition

// ---------------------------------------------------------------------------
// Multi-unit upgrade fabric (Figs 1 and 4, §7).

// Fleet hosts many upgrade units — the components of a composite
// service, each upgrading independently — behind one listener with
// host/path routing, a shared release transport pool, aggregated
// health/confidence, a JSON admin API under /fleet/, and registry
// upgrade-notification fan-in; see fleet.Fleet.
type Fleet = fleet.Fleet

// FleetConfig parameterizes a fleet.
type FleetConfig = fleet.Config

// FleetUnit is one hosted upgrade unit's configuration.
type FleetUnit = fleet.UnitConfig

// NewFleet builds a multi-unit upgrade fabric.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// RetryPolicy tolerates transient transport failures per release call
// (EngineConfig.Retry) and bounds release response bodies via
// MaxResponseBytes.
type RetryPolicy = httpx.RetryPolicy

// NewPooledClient returns an HTTP client whose transport is tuned for
// the middleware's traffic shape: keep-alive fan-out to a small set of
// release hosts. The engine builds one automatically as its https
// fallback and /healthz probe client when EngineConfig.HTTP is nil; it
// is exported for consumers that want the same pooling toward the proxy
// itself.
func NewPooledClient(timeout time.Duration, hosts int) *http.Client {
	return httpx.NewPooledClient(timeout, hosts)
}

// ---------------------------------------------------------------------------
// Confidence (§5.1).

// ScaledBeta is a Beta prior on [0, Upper] for a release's pfd.
type ScaledBeta = stats.ScaledBeta

// WhiteBox infers the trivariate posterior over (P_A, P_B, P_AB).
type WhiteBox = bayes.WhiteBox

// WhiteBoxConfig parameterizes the white-box inference.
type WhiteBoxConfig = bayes.WhiteBoxConfig

// BlackBox infers a single release's pfd.
type BlackBox = bayes.BlackBox

// JointCounts is the Table 1 observation record.
type JointCounts = bayes.JointCounts

// Posterior carries the marginal posteriors after an observation.
type Posterior = bayes.Posterior

// Criterion decides when the upgrade may switch (§5.1.1.2).
type Criterion = bayes.Criterion

// Criterion1 switches when the new release reaches the old release's
// prior dependability level.
type Criterion1 = bayes.Criterion1

// Criterion2 switches on an explicit pfd target.
type Criterion2 = bayes.Criterion2

// Criterion3 switches when the new release is no worse than the old.
type Criterion3 = bayes.Criterion3

// NewWhiteBox builds the trivariate inference engine.
func NewWhiteBox(cfg WhiteBoxConfig) (*WhiteBox, error) { return bayes.NewWhiteBox(cfg) }

// NewBlackBox builds the single-release inference engine.
func NewBlackBox(prior ScaledBeta, grid int) (*BlackBox, error) {
	return bayes.NewBlackBox(prior, grid)
}

// NewCriterion1 derives criterion 1's target from the old release's prior.
func NewCriterion1(priorA ScaledBeta, confidence float64) (Criterion1, error) {
	return bayes.NewCriterion1(priorA, confidence)
}

// ---------------------------------------------------------------------------
// Adjudication and oracles (§4.2, §4.3).

// Adjudicator selects the delivered response.
type Adjudicator = adjudicate.Adjudicator

// RandomValid is the paper's §5.2.1 adjudication rule set.
type RandomValid = adjudicate.RandomValid

// Majority votes by payload equality.
type Majority = adjudicate.Majority

// FastestValid returns the quickest valid response.
type FastestValid = adjudicate.FastestValid

// Oracle judges response correctness for monitoring.
type Oracle = oracle.Oracle

// FaultOnlyOracle detects evident failures only.
type FaultOnlyOracle = oracle.FaultOnly

// ReferenceOracle trusts a named release as the correctness reference
// (§3.1: "use the old release as an 'oracle'").
type ReferenceOracle = oracle.Reference

// BackToBackOracle detects failures by response comparison (§5.1.1.3).
type BackToBackOracle = oracle.BackToBack

// Monitor is the monitoring subsystem (§4.3); each engine builds its
// own, reached through Engine.Monitor.
type Monitor = monitor.Monitor

// ---------------------------------------------------------------------------
// Registry, composite services and the WS substrate.

// Registry is the UDDI-style registry server.
type Registry = registry.Server

// RegistryClient talks to a registry.
type RegistryClient = registry.Client

// RegistryEntry is one published release.
type RegistryEntry = registry.Entry

// NewRegistry builds an empty registry.
func NewRegistry(opts ...registry.Option) *Registry { return registry.NewServer(opts...) }

// Composite is a composite Web Service runtime (Fig 1).
type Composite = composite.Service

// CompositeDeps gives glue code access to component bindings.
type CompositeDeps = composite.Deps

// NewComposite builds a composite service for a contract.
func NewComposite(contract wsdl.Contract) (*Composite, error) { return composite.New(contract) }

// Contract describes a service's operations (WSDL 1.1 abstraction).
type Contract = wsdl.Contract

// ContractOperation is one operation of a contract.
type ContractOperation = wsdl.Operation

// ReleaseRuntime hosts one release of a service with fault injection.
type ReleaseRuntime = service.Release

// FaultPlan is a release's injected dependability profile.
type FaultPlan = service.FaultPlan

// Behaviour is one operation's correct and faulty implementations, the
// same on a release's SOAP and REST/JSON faces.
type Behaviour = service.Behaviour

// NewRelease builds a release runtime.
func NewRelease(contract Contract, behaviours map[string]Behaviour, plan FaultPlan) (*ReleaseRuntime, error) {
	return service.New(contract, behaviours, plan)
}

// SOAPClient invokes operations on any SOAP endpoint in this system.
type SOAPClient = soap.Client

// ---------------------------------------------------------------------------
// Evaluation (§5).

// OutcomeProfile is a release's CR/ER/NER marginal distribution (Table 3).
type OutcomeProfile = relmodel.Profile

// Scenario bundles a Bayesian study's priors and ground truth (§5.1.1.1).
type Scenario = relmodel.Scenario

// Scenario1 returns the paper's first study.
func Scenario1() Scenario { return relmodel.Scenario1() }

// Scenario2 returns the paper's second study.
func Scenario2() Scenario { return relmodel.Scenario2() }

// StudyConfig parameterizes a Table 2 / Fig 7 / Fig 8 sweep.
type StudyConfig = repro.StudyConfig

// StudyResult is a complete switch study.
type StudyResult = repro.StudyResult

// RunSwitchStudy regenerates Table 2 and the figures for one scenario.
func RunSwitchStudy(cfg StudyConfig) (*StudyResult, error) { return repro.RunSwitchStudy(cfg) }

// AvailabilityConfig parameterizes a Table 5/6 regeneration.
type AvailabilityConfig = repro.AvailabilityConfig

// RunAvailabilityStudy regenerates Table 5 (correlated) or 6 (independent).
func RunAvailabilityStudy(cfg AvailabilityConfig) ([]repro.AvailabilityRow, error) {
	return repro.RunAvailabilityStudy(cfg)
}
