// Public-API smoke tests: everything a downstream user needs must be
// reachable through the root package alone (plus the oracle/bayes
// sub-APIs re-exported by name).
package wsupgrade

import (
	"context"
	"net/http/httptest"
	"testing"

	"wsupgrade/internal/oracle"
	"wsupgrade/internal/service"
)

func TestPublicAPIManagedUpgrade(t *testing.T) {
	oldRel, err := NewRelease(service.DemoContract("1.0"), service.DemoBehaviours(),
		FaultPlan{Profile: OutcomeProfile{CR: 0.9, ER: 0.05, NER: 0.05}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	newRel, err := NewRelease(service.DemoContract("1.1"), service.DemoBehaviours(), FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	oldTS := httptest.NewServer(oldRel.Handler())
	defer oldTS.Close()
	newTS := httptest.NewServer(newRel.Handler())
	defer newTS.Close()

	prior := ScaledBeta{Alpha: 1, Beta: 3, Upper: 0.4}
	engine, err := NewEngine(EngineConfig{
		Releases: []Endpoint{
			{Version: "1.0", URL: oldTS.URL},
			{Version: "1.1", URL: newTS.URL},
		},
		InitialPhase: PhaseObservation,
		Oracle:       oracle.Header{},
		Inference: &WhiteBoxConfig{
			PriorA: prior, PriorB: prior,
			GridA: 30, GridB: 30, GridC: 8, GridAB: 32,
		},
		Policy: &PolicyConfig{
			Criterion:  Criterion3{Confidence: 0.9},
			CheckEvery: 20,
			MinDemands: 40,
		},
		ConfidenceTarget: 0.1,
		Seed:             2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer engine.Close()
	proxy := httptest.NewServer(engine.Handler())
	defer proxy.Close()

	client := &SOAPClient{URL: proxy.URL}
	ctx := context.Background()
	for i := 0; i < 150 && engine.Phase() != PhaseNewOnly; i++ {
		var out service.AddResponse
		_ = client.Call(ctx, "add", service.AddRequest{A: i, B: 1}, &out)
	}
	if engine.Phase() != PhaseNewOnly {
		t.Fatalf("managed upgrade never switched; phase = %v", engine.Phase())
	}
	rep, err := engine.Confidence("")
	if err != nil {
		t.Fatal(err)
	}
	if rep.New <= rep.Old {
		t.Fatalf("confidence: new %v should exceed old %v", rep.New, rep.Old)
	}
}

func TestPublicAPIScenariosAndSimulation(t *testing.T) {
	s1, s2 := Scenario1(), Scenario2()
	if s1.Name != "scenario-1" || s2.Name != "scenario-2" {
		t.Fatal("scenario constructors broken")
	}
	rows, err := RunAvailabilityStudy(AvailabilityConfig{Correlated: true, Requests: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if s := row.Result.System; s.Total()+s.NRDT != 100 {
			t.Fatalf("run %d timeout %v: the engine's Table 5 block accounts for %d of 100 demands",
				row.Run, row.TimeOut, s.Total()+s.NRDT)
		}
	}
}

func TestPublicAPIInference(t *testing.T) {
	s1 := Scenario1()
	wb, err := NewWhiteBox(WhiteBoxConfig{
		PriorA: s1.PriorA, PriorB: s1.PriorB,
		GridA: 30, GridB: 30, GridC: 8, GridAB: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	post, err := wb.Posterior(JointCounts{N: 10000, AOnly: 10})
	if err != nil {
		t.Fatal(err)
	}
	c1, err := NewCriterion1(s1.PriorA, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	_ = c1.Satisfied(post)
	_ = Criterion2{Confidence: 0.99, Target: 1e-3}.Satisfied(post)
	_ = Criterion3{Confidence: 0.99}.Satisfied(post)

	bb, err := NewBlackBox(s1.PriorA, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bb.Posterior(1000, 1); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIRegistryAndComposite(t *testing.T) {
	regTS := httptest.NewServer(NewRegistry())
	defer regTS.Close()
	reg := &RegistryClient{Base: regTS.URL}
	ctx := context.Background()
	if err := reg.Publish(ctx, RegistryEntry{Name: "S", Version: "1.0", URL: "http://a"}); err != nil {
		t.Fatal(err)
	}
	entries, err := reg.Find(ctx, "S")
	if err != nil || len(entries) != 1 {
		t.Fatalf("find: %v %v", entries, err)
	}

	comp, err := NewComposite(Contract{
		Name:            "C",
		TargetNamespace: "urn:c",
		Operations:      []ContractOperation{{Name: "op"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := comp.Bind("x", "http://a"); err != nil {
		t.Fatal(err)
	}

	mon := NewMonitor()
	if mon == nil {
		t.Fatal("monitor constructor broken")
	}
}

func TestPublicAPIStudies(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	res, err := RunSwitchStudy(StudyConfig{
		Scenario:   Scenario2(),
		Step:       500,
		MaxDemands: 2000,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "scenario-2" {
		t.Fatal("study mislabeled")
	}
	rows, err := RunAvailabilityStudy(AvailabilityConfig{Correlated: false, Requests: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestPublicAPIAdjudicators(t *testing.T) {
	for _, a := range []Adjudicator{RandomValid{}, Majority{}, FastestValid{}} {
		if a.Name() == "" {
			t.Fatal("unnamed adjudicator")
		}
	}
	var _ Oracle = FaultOnlyOracle{}
	var _ Oracle = ReferenceOracle{Release: "1.0"}
	var _ Oracle = BackToBackOracle{}
}
