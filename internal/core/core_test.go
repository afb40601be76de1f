package core

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/dispatch"
	"wsupgrade/internal/httpx"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/registry"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/stats"
	"wsupgrade/internal/wire"
	"wsupgrade/internal/wsdl"
)

// startRelease boots one live fault-injected release.
func startRelease(t *testing.T, version string, plan service.FaultPlan) (*service.Release, Endpoint) {
	t.Helper()
	rel, err := service.New(service.DemoContract(version), service.DemoBehaviours(), plan)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rel.Handler())
	t.Cleanup(ts.Close)
	return rel, Endpoint{Version: version, URL: ts.URL}
}

// startEngine boots a middleware over the given releases.
func startEngine(t *testing.T, cfg Config) (*Engine, *httptest.Server) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(e.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := e.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return e, ts
}

func callAdd(t *testing.T, url string, a, b int) (service.AddResponse, error) {
	t.Helper()
	c := &soap.Client{URL: url, HTTP: &http.Client{Timeout: 5 * time.Second}}
	var out service.AddResponse
	err := c.Call(context.Background(), "add", service.AddRequest{A: a, B: b}, &out)
	return out, err
}

func testInference() *bayes.WhiteBoxConfig {
	return &bayes.WhiteBoxConfig{
		PriorA: stats.ScaledBeta{Alpha: 1, Beta: 1, Upper: 0.4},
		PriorB: stats.ScaledBeta{Alpha: 1, Beta: 1, Upper: 0.4},
		GridA:  30, GridB: 30, GridC: 8, GridAB: 32,
	}
}

func TestConfigValidation(t *testing.T) {
	cases := map[string]Config{
		"no releases":        {},
		"missing url":        {Releases: []Endpoint{{Version: "1.0"}}},
		"duplicate versions": {Releases: []Endpoint{{Version: "1.0", URL: "http://a"}, {Version: "1.0", URL: "http://b"}}},
		"bad mode":           {Releases: []Endpoint{{Version: "1.0", URL: "http://a"}}, Mode: Mode(99)},
		"bad quorum": {Releases: []Endpoint{{Version: "1.0", URL: "http://a"}},
			Mode: ModeDynamic, Quorum: 5},
		"parallel with one release": {Releases: []Endpoint{{Version: "1.0", URL: "http://a"}},
			InitialPhase: PhaseParallel},
		"policy without criterion": {Releases: []Endpoint{{Version: "1.0", URL: "http://a"}, {Version: "1.1", URL: "http://b"}},
			Policy: &PolicyConfig{}},
		"policy without inference": {Releases: []Endpoint{{Version: "1.0", URL: "http://a"}, {Version: "1.1", URL: "http://b"}},
			Policy: &PolicyConfig{Criterion: bayes.Criterion3{Confidence: 0.9}}},
		"negative timeout": {Releases: []Endpoint{{Version: "1.0", URL: "http://a"}},
			InitialPhase: PhaseOldOnly, Timeout: -1},
		"bad confidence target": {Releases: []Endpoint{{Version: "1.0", URL: "http://a"}},
			InitialPhase: PhaseOldOnly, ConfidenceTarget: 1.5},
	}
	for name, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPhaseAndModeStrings(t *testing.T) {
	if PhaseOldOnly.String() != "old-only" || PhaseObservation.String() != "observation" ||
		PhaseParallel.String() != "parallel" || PhaseNewOnly.String() != "new-only" ||
		Phase(9).String() != "Phase(9)" {
		t.Fatal("phase strings wrong")
	}
	if ModeReliability.String() != "parallel-reliability" || ModeSequential.String() != "sequential" ||
		ModeResponsiveness.String() != "parallel-responsiveness" || ModeDynamic.String() != "parallel-dynamic" ||
		Mode(9).String() != "Mode(9)" {
		t.Fatal("mode strings wrong")
	}
}

func TestProxyHappyPath(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	_, ts := startEngine(t, Config{Releases: []Endpoint{old, new_}})
	out, err := callAdd(t, ts.URL, 20, 22)
	if err != nil {
		t.Fatal(err)
	}
	if out.Sum != 42 {
		t.Fatalf("sum = %d", out.Sum)
	}
}

// The 1-out-of-2 architecture tolerates a release that fails evidently on
// every demand: consumers keep getting correct responses.
func TestToleratesEvidentlyFailingRelease(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{
		Profile: relmodel.Profile{ER: 1}, Seed: 1})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	e, ts := startEngine(t, Config{Releases: []Endpoint{old, new_}})
	for i := 0; i < 20; i++ {
		out, err := callAdd(t, ts.URL, i, i)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if out.Sum != 2*i {
			t.Fatalf("request %d: sum = %d", i, out.Sum)
		}
	}
	// The monitor saw the old release failing evidently every time.
	s, err := e.Stats("1.0")
	if err != nil {
		t.Fatal(err)
	}
	if s.Evident != 20 || s.Demands != 20 {
		t.Fatalf("old stats = %+v", s)
	}
}

func TestAllEvidentYieldsFault(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{Profile: relmodel.Profile{ER: 1}, Seed: 2})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{Profile: relmodel.Profile{ER: 1}, Seed: 3})
	_, ts := startEngine(t, Config{Releases: []Endpoint{old, new_}})
	_, err := callAdd(t, ts.URL, 1, 1)
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want fault", err)
	}
}

func TestUnavailableWhenNoReleaseResponds(t *testing.T) {
	// Endpoints that do not exist: transport errors, no responses.
	_, ts := startEngine(t, Config{
		Releases: []Endpoint{
			{Version: "1.0", URL: "http://127.0.0.1:1"},
			{Version: "1.1", URL: "http://127.0.0.1:1"},
		},
		Timeout: 300 * time.Millisecond,
	})
	_, err := callAdd(t, ts.URL, 1, 1)
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want fault", err)
	}
	if !strings.Contains(f.String, "unavailable") {
		t.Fatalf("fault = %+v, want 'Web Service unavailable'", f)
	}
}

func TestPhaseOldOnlyCallsOnlyOld(t *testing.T) {
	oldRel, old := startRelease(t, "1.0", service.FaultPlan{})
	newRel, new_ := startRelease(t, "1.1", service.FaultPlan{})
	_, ts := startEngine(t, Config{Releases: []Endpoint{old, new_}, InitialPhase: PhaseOldOnly})
	for i := 0; i < 5; i++ {
		if _, err := callAdd(t, ts.URL, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if oldRel.Calls() != 5 || newRel.Calls() != 0 {
		t.Fatalf("calls old=%d new=%d", oldRel.Calls(), newRel.Calls())
	}
}

// §3.1: during observation both releases run back-to-back, but the old
// release's response is the one delivered.
func TestPhaseObservationDeliversOldObservesNew(t *testing.T) {
	oldRel, old := startRelease(t, "1.0", service.FaultPlan{})
	// The new release always returns the wrong sum: consumers must not
	// see it during observation.
	newRel, new_ := startRelease(t, "1.1", service.FaultPlan{
		Profile: relmodel.Profile{NER: 1}, Seed: 4})
	e, ts := startEngine(t, Config{
		Releases:     []Endpoint{old, new_},
		InitialPhase: PhaseObservation,
		Oracle:       oracle.Header{},
	})
	for i := 0; i < 10; i++ {
		out, err := callAdd(t, ts.URL, i, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out.Sum != i+1 {
			t.Fatalf("observation leaked the new release's wrong answer: %d", out.Sum)
		}
	}
	if oldRel.Calls() != 10 || newRel.Calls() != 10 {
		t.Fatalf("calls old=%d new=%d, both should be exercised", oldRel.Calls(), newRel.Calls())
	}
	// The monitor accumulated B-only failures.
	joint := e.Monitor().Joint()
	if joint.N != 10 || joint.BOnly != 10 {
		t.Fatalf("joint = %+v", joint)
	}
}

func TestPhaseNewOnlyCallsOnlyNew(t *testing.T) {
	oldRel, old := startRelease(t, "1.0", service.FaultPlan{})
	newRel, new_ := startRelease(t, "1.1", service.FaultPlan{})
	e, ts := startEngine(t, Config{Releases: []Endpoint{old, new_}})
	if err := e.SetPhase(PhaseNewOnly); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := callAdd(t, ts.URL, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if oldRel.Calls() != 0 || newRel.Calls() != 5 {
		t.Fatalf("calls old=%d new=%d", oldRel.Calls(), newRel.Calls())
	}
}

func TestSetPhaseValidation(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	e, err := New(Config{Releases: []Endpoint{old}, InitialPhase: PhaseOldOnly})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.SetPhase(PhaseParallel); !errors.Is(err, ErrBadPhase) {
		t.Fatalf("parallel with one release: %v", err)
	}
	if err := e.SetPhase(Phase(42)); !errors.Is(err, ErrBadPhase) {
		t.Fatalf("unknown phase: %v", err)
	}
	if err := e.SetPhase(PhaseNewOnly); err != nil {
		t.Fatal(err)
	}
}

// The managed upgrade end to end: the new release is dependable, the old
// one visibly fails; the Bayesian policy switches to the new release.
func TestAutomaticSwitch(t *testing.T) {
	oldRel, old := startRelease(t, "1.0", service.FaultPlan{
		Profile: relmodel.Profile{CR: 0.7, NER: 0.3}, Seed: 5})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	e, ts := startEngine(t, Config{
		Releases:     []Endpoint{old, new_},
		InitialPhase: PhaseObservation,
		Oracle:       oracle.Header{},
		Inference:    testInference(),
		Policy: &PolicyConfig{
			Criterion:  bayes.Criterion3{Confidence: 0.9},
			CheckEvery: 20,
			MinDemands: 40,
		},
	})
	for i := 0; i < 120; i++ {
		if _, err := callAdd(t, ts.URL, i, 1); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if e.Phase() == PhaseNewOnly {
			break
		}
	}
	if e.Phase() != PhaseNewOnly {
		t.Fatalf("no switch after 120 demands; joint = %+v", e.Monitor().Joint())
	}
	at, ok := e.SwitchedAt()
	if !ok || at < 40 {
		t.Fatalf("switched at %d (ok=%v)", at, ok)
	}
	// After the switch the old release stops being invoked.
	before := oldRel.Calls()
	for i := 0; i < 5; i++ {
		if _, err := callAdd(t, ts.URL, i, 2); err != nil {
			t.Fatal(err)
		}
	}
	if oldRel.Calls() != before {
		t.Fatalf("old release still invoked after switch: %d -> %d", before, oldRel.Calls())
	}
}

// A policy whose criterion cannot be met must never switch.
func TestPolicyDoesNotSwitchWithoutEvidence(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	e, ts := startEngine(t, Config{
		Releases:     []Endpoint{old, new_},
		InitialPhase: PhaseObservation,
		Oracle:       oracle.Header{},
		Inference:    testInference(),
		Policy: &PolicyConfig{
			// pfd ≤ 1e-9 at 99.999% confidence: unreachable with the
			// diffuse test prior and a handful of demands.
			Criterion:  bayes.Criterion2{Confidence: 0.99999, Target: 1e-9},
			CheckEvery: 10,
		},
	})
	for i := 0; i < 40; i++ {
		if _, err := callAdd(t, ts.URL, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if e.Phase() != PhaseObservation {
		t.Fatalf("premature switch to %v", e.Phase())
	}
	if _, ok := e.SwitchedAt(); ok {
		t.Fatal("switchedAt set without switch")
	}
}

func TestMonitoringMatchesInjectedGroundTruth(t *testing.T) {
	oldRel, old := startRelease(t, "1.0", service.FaultPlan{
		Profile: relmodel.Profile{CR: 0.6, ER: 0.2, NER: 0.2}, Seed: 6})
	newRel, new_ := startRelease(t, "1.1", service.FaultPlan{
		Profile: relmodel.Profile{CR: 0.8, ER: 0.1, NER: 0.1}, Seed: 7})
	e, ts := startEngine(t, Config{
		Releases: []Endpoint{old, new_},
		Oracle:   oracle.Header{},
	})
	const n = 60
	for i := 0; i < n; i++ {
		_, _ = callAdd(t, ts.URL, i, i)
	}
	for rel, runtime := range map[string]*service.Release{"1.0": oldRel, "1.1": newRel} {
		s, err := e.Stats(rel)
		if err != nil {
			t.Fatal(err)
		}
		inj := runtime.Injected()
		if s.Demands != n {
			t.Fatalf("%s demands = %d", rel, s.Demands)
		}
		wantFailed := inj[relmodel.EvidentFailure] + inj[relmodel.NonEvidentFailure]
		if s.JudgedFailures != wantFailed {
			t.Fatalf("%s judged failures = %d, injected = %d", rel, s.JudgedFailures, wantFailed)
		}
		if s.Evident != inj[relmodel.EvidentFailure] {
			t.Fatalf("%s evident = %d, injected = %d", rel, s.Evident, inj[relmodel.EvidentFailure])
		}
	}
	if e.Monitor().Joint().N != n {
		t.Fatalf("joint N = %d", e.Monitor().Joint().N)
	}
}

func TestConfidenceQueryOperation(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	_, ts := startEngine(t, Config{
		Releases:      []Endpoint{old, new_},
		Oracle:        oracle.Header{},
		Inference:     testInference(),
		EnableConfOps: true,
	})
	// Generate some evidence first.
	for i := 0; i < 10; i++ {
		if _, err := callAdd(t, ts.URL, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	c := &soap.Client{URL: ts.URL}
	var resp struct {
		XMLName    struct{} `xml:"OperationConfResponse"`
		Confidence float64  `xml:"confidence"`
	}
	err := c.Call(context.Background(), wsdl.ConfOperationName, struct {
		XMLName   struct{} `xml:"OperationConfRequest"`
		Operation string   `xml:"operation"`
	}{Operation: "add"}, &resp)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Confidence <= 0 || resp.Confidence > 1 {
		t.Fatalf("confidence = %v", resp.Confidence)
	}
}

func TestConfVariantOperation(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	_, ts := startEngine(t, Config{
		Releases:      []Endpoint{old, new_},
		Oracle:        oracle.Header{},
		Inference:     testInference(),
		EnableConfOps: true,
	})
	c := &soap.Client{URL: ts.URL}
	env := soap.EnvelopeRaw([]byte(`<addConfRequest><a>2</a><b>3</b></addConfRequest>`))
	respEnv, err := c.CallRaw(context.Background(), "addConf", env)
	if err != nil {
		t.Fatal(err)
	}
	text := string(respEnv)
	if !strings.Contains(text, "<addConfResponse>") {
		t.Fatalf("response not renamed: %s", text)
	}
	if !strings.Contains(text, "<sum>5</sum>") {
		t.Fatalf("result missing: %s", text)
	}
	if !strings.Contains(text, "<addConf>") {
		t.Fatalf("confidence element missing: %s", text)
	}
}

func TestPublishHeaderMechanism(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	_, ts := startEngine(t, Config{
		Releases:      []Endpoint{old, new_},
		Oracle:        oracle.Header{},
		Inference:     testInference(),
		PublishHeader: true,
	})
	c := &soap.Client{URL: ts.URL}
	env := soap.EnvelopeRaw([]byte(`<addRequest><a>1</a><b>1</b></addRequest>`))
	respEnv, err := c.CallRaw(context.Background(), "add", env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(respEnv), "Confidence") {
		t.Fatalf("confidence header missing: %s", respEnv)
	}
	parsed, err := soap.Decode(respEnv)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.HeaderXML) == 0 {
		t.Fatal("no SOAP header in response")
	}
}

func TestExtendedWSDL(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	contract := service.DemoContract("1.1")
	_, ts := startEngine(t, Config{
		Releases:      []Endpoint{old, new_},
		EnableConfOps: true,
		Contract:      &contract,
	})
	resp, err := http.Get(ts.URL + "/wsdl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<17)
	n, _ := resp.Body.Read(buf)
	text := string(buf[:n])
	for _, want := range []string{"OperationConf", "operation1Conf", "addConf"} {
		if !strings.Contains(text, want) {
			t.Errorf("extended WSDL missing %q", want)
		}
	}
}

func TestReleaseManagement(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	e, err := New(Config{Releases: []Endpoint{old}, InitialPhase: PhaseOldOnly})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.AddRelease(Endpoint{Version: "1.1", URL: "http://b"}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRelease(Endpoint{Version: "1.1", URL: "http://c"}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("duplicate add: %v", err)
	}
	if err := e.AddRelease(Endpoint{}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty add: %v", err)
	}
	if got := len(e.Releases()); got != 2 {
		t.Fatalf("releases = %d", got)
	}
	if err := e.SetPhase(PhaseParallel); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveRelease("ghost"); !errors.Is(err, ErrUnknownRelease) {
		t.Fatalf("remove ghost: %v", err)
	}
	if err := e.RemoveRelease("1.0"); err != nil {
		t.Fatal(err)
	}
	// Down to one release in a parallel phase: forced to NewOnly.
	if e.Phase() != PhaseNewOnly {
		t.Fatalf("phase = %v", e.Phase())
	}
	if err := e.RemoveRelease("1.1"); !errors.Is(err, ErrBadPhase) {
		t.Fatalf("removing the last release: %v", err)
	}
}

func TestModeResponsivenessDeliversAndMonitors(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{MeanLatency: 30 * time.Millisecond, Seed: 8})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	e, ts := startEngine(t, Config{
		Releases: []Endpoint{old, new_},
		Mode:     ModeResponsiveness,
		Oracle:   oracle.Header{},
	})
	const n = 10
	for i := 0; i < n; i++ {
		out, err := callAdd(t, ts.URL, i, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out.Sum != i+1 {
			t.Fatalf("sum = %d", out.Sum)
		}
	}
	// Drain the background collection, then both releases must have been
	// fully monitored.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"1.0", "1.1"} {
		s, err := e.Stats(rel)
		if err != nil {
			t.Fatal(err)
		}
		if s.Demands != n {
			t.Fatalf("%s demands = %d, want %d", rel, s.Demands, n)
		}
	}
}

func TestModeSequentialShortCircuits(t *testing.T) {
	oldRel, old := startRelease(t, "1.0", service.FaultPlan{})
	newRel, new_ := startRelease(t, "1.1", service.FaultPlan{})
	_, ts := startEngine(t, Config{
		Releases: []Endpoint{old, new_},
		Mode:     ModeSequential,
	})
	for i := 0; i < 8; i++ {
		if _, err := callAdd(t, ts.URL, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if oldRel.Calls() != 8 || newRel.Calls() != 0 {
		t.Fatalf("calls old=%d new=%d; healthy old must short-circuit", oldRel.Calls(), newRel.Calls())
	}
}

func TestModeSequentialFailsOver(t *testing.T) {
	oldRel, old := startRelease(t, "1.0", service.FaultPlan{Profile: relmodel.Profile{ER: 1}, Seed: 9})
	newRel, new_ := startRelease(t, "1.1", service.FaultPlan{})
	_, ts := startEngine(t, Config{
		Releases: []Endpoint{old, new_},
		Mode:     ModeSequential,
	})
	out, err := callAdd(t, ts.URL, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.Sum != 7 {
		t.Fatalf("sum = %d", out.Sum)
	}
	if oldRel.Calls() != 1 || newRel.Calls() != 1 {
		t.Fatalf("calls old=%d new=%d", oldRel.Calls(), newRel.Calls())
	}
}

func TestModeDynamicQuorumOne(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	e, ts := startEngine(t, Config{
		Releases: []Endpoint{old, new_},
		Mode:     ModeDynamic,
		Quorum:   1,
		Oracle:   oracle.Header{},
	})
	const n = 10
	for i := 0; i < n; i++ {
		out, err := callAdd(t, ts.URL, i, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out.Sum != i+1 {
			t.Fatalf("sum = %d", out.Sum)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if e.Monitor().Joint().N != n {
		t.Fatalf("joint N = %d after drain", e.Monitor().Joint().N)
	}
}

func TestRegistryPublication(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	contract := service.DemoContract("1.1")
	e, ts := startEngine(t, Config{
		Releases:  []Endpoint{old, new_},
		Oracle:    oracle.Header{},
		Inference: testInference(),
		Contract:  &contract,
	})
	for i := 0; i < 10; i++ {
		if _, err := callAdd(t, ts.URL, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	reg := registry.NewServer()
	regTS := httptest.NewServer(reg)
	defer regTS.Close()
	entry := e.RegistryEntry("WebService1", ts.URL)
	if entry.Version != "1.1" {
		t.Fatalf("entry version = %s", entry.Version)
	}
	if len(entry.Confidence) != 2 {
		t.Fatalf("confidence entries = %+v", entry.Confidence)
	}
	client := &registry.Client{Base: regTS.URL}
	if err := client.Publish(context.Background(), entry); err != nil {
		t.Fatal(err)
	}
	got, err := client.Get(context.Background(), "WebService1", "1.1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Confidence) != 2 {
		t.Fatalf("published confidence lost: %+v", got)
	}
}

func TestConfidenceWithoutInference(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	e, err := New(Config{Releases: []Endpoint{old}, InitialPhase: PhaseOldOnly})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.Confidence(""); !errors.Is(err, ErrNoInference) {
		t.Fatalf("err = %v", err)
	}
}

func TestConfidenceReportSemantics(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{
		Profile: relmodel.Profile{CR: 0.5, NER: 0.5}, Seed: 10})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	e, ts := startEngine(t, Config{
		Releases:     []Endpoint{old, new_},
		InitialPhase: PhaseParallel,
		Oracle:       oracle.Header{},
		Inference:    testInference(),
	})
	for i := 0; i < 60; i++ {
		if _, err := callAdd(t, ts.URL, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := e.Confidence("")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Demands != 60 {
		t.Fatalf("demands = %d", rep.Demands)
	}
	// The visibly failing old release must have lower confidence.
	if rep.Old >= rep.New {
		t.Fatalf("old confidence %v not below new %v", rep.Old, rep.New)
	}
	// Parallel phase publishes the conservative minimum.
	if rep.Published != rep.Old {
		t.Fatalf("published %v, want min %v", rep.Published, rep.Old)
	}
	if rep.OldP99 <= rep.NewP99 {
		t.Fatalf("old P99 %v should exceed new %v", rep.OldP99, rep.NewP99)
	}
	// Per-operation report works too.
	repOp, err := e.Confidence("add")
	if err != nil {
		t.Fatal(err)
	}
	if repOp.Demands != 60 {
		t.Fatalf("per-op demands = %d", repOp.Demands)
	}
}

func TestEventLogSink(t *testing.T) {
	var sink strings.Builder
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	_, ts := startEngine(t, Config{
		Releases: []Endpoint{old, new_},
		Store:    &sink,
	})
	if _, err := callAdd(t, ts.URL, 1, 2); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sink.String(), `"operation":"add"`) {
		t.Fatalf("event log missing: %q", sink.String())
	}
}

// frozenClock stops the engine's time at one instant; its timers never
// fire.
type frozenClock struct{ at time.Time }

func (c frozenClock) Now() time.Time                               { return c.at }
func (frozenClock) AfterFunc(time.Duration, func()) dispatch.Timer { return idleTimer{} }

type idleTimer struct{}

func (idleTimer) Reset(time.Duration) bool { return false }
func (idleTimer) Stop() bool               { return true }

// The event log is stamped by the engine's clock, as every latency is:
// under a virtual clock a record's time is the clock's, not the wall's.
func TestEventLogFollowsClock(t *testing.T) {
	at := time.Date(2004, time.June, 28, 9, 0, 0, 0, time.UTC)
	reply := soap.EnvelopeRaw([]byte(`<addResponse><sum>3</sum></addResponse>`))
	var sink strings.Builder
	e, ts := startEngine(t, Config{
		Releases: []Endpoint{{Version: "1.0", URL: "http://old.invalid"}, {Version: "1.1", URL: "http://new.invalid"}},
		Clock:    frozenClock{at},
		Store:    &sink,
		Begin: func(context.Context, string, string, []byte, httpx.RetryPolicy) wire.Call {
			return wire.Deferred(func() (httpx.Result, error) {
				return httpx.Result{Status: http.StatusOK, Body: reply}, nil
			})
		},
	})
	const demands = 3
	for i := 0; i < demands; i++ {
		if _, err := callAdd(t, ts.URL, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sink.String()), "\n")
	if len(lines) != demands {
		t.Fatalf("%d event log lines, want %d: %q", len(lines), demands, sink.String())
	}
	for _, line := range lines {
		var rec struct {
			Time time.Time `json:"time"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("event log line %q: %v", line, err)
		}
		if !rec.Time.Equal(at) {
			t.Fatalf("record stamped %v, want the engine clock's %v", rec.Time, at)
		}
	}
}

// errDiskFull is what a Store on a full disk answers every write with.
var errDiskFull = errors.New("no space left on device")

type fullDisk struct{}

func (fullDisk) Write([]byte) (int, error) { return 0, errDiskFull }

// The event log is the one place a demand's record goes, so a Store that
// stops taking writes must not lose records without a word: the demands
// are still served and counted, and Close reports the write error.
func TestCloseReportsStoreFailure(t *testing.T) {
	reply := soap.EnvelopeRaw([]byte(`<addResponse><sum>3</sum></addResponse>`))
	e, err := New(Config{
		Releases:     []Endpoint{{Version: "1.0", URL: "http://old.invalid"}},
		InitialPhase: PhaseOldOnly,
		Store:        fullDisk{},
		Begin: func(context.Context, string, string, []byte, httpx.RetryPolicy) wire.Call {
			return wire.Deferred(func() (httpx.Result, error) {
				return httpx.Result{Status: http.StatusOK, Body: reply}, nil
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(e.Handler())
	if got, err := callAdd(t, ts.URL, 1, 2); err != nil || got.Sum != 3 {
		t.Fatalf("demand with a failing Store: %+v, %v", got, err)
	}
	ts.Close()
	if err := e.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close = %v, want the Store's write error", err)
	}
	if st, err := e.Stats("1.0"); err != nil || st.Demands != 1 {
		t.Fatalf("stats after a failing Store: %+v, %v", st, err)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	e, err := New(Config{Releases: []Endpoint{old}, InitialPhase: PhaseOldOnly})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestNonPOSTRejected(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, ts := startEngine(t, Config{Releases: []Endpoint{old}, InitialPhase: PhaseOldOnly})
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET = %d", resp.StatusCode)
	}
}

func TestGarbageRequestRejected(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, ts := startEngine(t, Config{Releases: []Endpoint{old}, InitialPhase: PhaseOldOnly})
	resp, err := http.Post(ts.URL+"/", soap.ContentType, strings.NewReader("not xml"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("garbage = %d", resp.StatusCode)
	}
}
