package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"wsupgrade/internal/oracle"
	"wsupgrade/internal/testutil"
)

func TestScenarioRegistry(t *testing.T) {
	names := Scenarios()
	want := []string{"corrupt-never-wins", "corrupt-never-wins-json", "crash-recovery", "crash-restart", "mixed-fault", "omission-convergence", "saturation", "soak"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Scenarios() = %v, want %v (sorted)", names, want)
	}
	if _, err := RunScenario(context.Background(), "nope", ScenarioOptions{}); !errors.Is(err, ErrUnknownScenario) {
		t.Fatalf("unknown scenario err = %v", err)
	}
}

// TestCorruptNeverWins is the flagship acceptance claim: a release
// whose every response is corrupt (well-formed, wrong) must never win
// adjudication, never reach a consumer, and never be switched to.
func TestCorruptNeverWins(t *testing.T) {
	testutil.CheckGoroutines(t)
	res, err := RunScenario(context.Background(), "corrupt-never-wins",
		ScenarioOptions{Requests: 150, Concurrency: 3, Seed: 7})
	if err != nil {
		t.Fatalf("scenario failed: %v\nresult: %+v", err, res)
	}
	if !res.Pass {
		t.Fatalf("pass=false without error: %+v", res)
	}
	if res.Load.Verdicts[VerdictOK] != 150 || res.Load.Winners["1.1"] != 0 {
		t.Fatalf("load evidence inconsistent: %+v", res.Load)
	}
	if got := res.Injected["svc"]["NER"]; got < 140 {
		t.Fatalf("injector corrupted %d of 150 demands at rate 1", got)
	}
	if res.Units[0].Phase != "observation" {
		t.Fatalf("phase = %s", res.Units[0].Phase)
	}

	// The result is the CI artifact: JSON round-trip with evidence intact.
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back ScenarioResult
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if !back.Pass || back.Scenario != "corrupt-never-wins" || back.Units[0].NewJudgedFailures == 0 {
		t.Fatalf("JSON round-trip lost evidence: %+v", back)
	}
}

// TestCorruptNeverWinsJSON: the flagship claim holds end to end through
// the REST/JSON gateway — JSON releases, JSON wrong answers, JSON
// demands, same verdict.
func TestCorruptNeverWinsJSON(t *testing.T) {
	testutil.CheckGoroutines(t)
	res, err := RunScenario(context.Background(), "corrupt-never-wins-json",
		ScenarioOptions{Requests: 150, Concurrency: 3, Seed: 7})
	if err != nil {
		t.Fatalf("scenario failed: %v\nresult: %+v", err, res)
	}
	if res.Load.Protocol != "json" {
		t.Fatalf("load protocol = %q", res.Load.Protocol)
	}
	if res.Load.Verdicts[VerdictOK] != 150 || res.Load.Winners["1.1"] != 0 {
		t.Fatalf("load evidence inconsistent: %+v", res.Load)
	}
	if got := res.Injected["svc"]["NER"]; got < 140 {
		t.Fatalf("injector corrupted %d of 150 demands at rate 1", got)
	}
	if res.Units[0].Phase != "observation" {
		t.Fatalf("phase = %s", res.Units[0].Phase)
	}
}

// TestCorruptNeverWinsIsSeeded: same seed → identical injection counts.
func TestCorruptNeverWinsIsSeeded(t *testing.T) {
	testutil.CheckGoroutines(t)
	opts := ScenarioOptions{Requests: 60, Concurrency: 2, Seed: 11}
	a, err := RunScenario(context.Background(), "corrupt-never-wins", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunScenario(context.Background(), "corrupt-never-wins", opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Injected["svc"]["NER"] != b.Injected["svc"]["NER"] {
		t.Fatalf("seeded runs diverged: %v vs %v", a.Injected, b.Injected)
	}
}

// TestCorruptNeverWinsHeaderOracle: every wrong reply of the corrupt
// release carries the ground truth "NER", so the header oracle charges
// it as the Reference oracle does.
func TestCorruptNeverWinsHeaderOracle(t *testing.T) {
	testutil.CheckGoroutines(t)
	spec := corruptUnit("soap")
	spec.judge = oracle.Header{}
	d, err := deploy(7, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	load, err := Run(context.Background(), Options{
		URLs: []string{d.unitURL("svc")}, Concurrency: 3, Requests: 150, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	u := unitReport(d, "svc", "1.0", "1.1")
	if u.NewDemands == 0 || u.NewJudgedFailures < u.NewDemands*9/10 {
		t.Fatalf("header oracle charged the corrupt release on %d of %d demands", u.NewJudgedFailures, u.NewDemands)
	}
	if load.Verdicts[VerdictOK] != 150 || u.Phase != "observation" {
		t.Fatalf("verdicts %v, phase %s: the uncharged corrupt release was promoted", load.Verdicts, u.Phase)
	}
}

func TestOmissionConvergence(t *testing.T) {
	testutil.CheckGoroutines(t)
	res, err := RunScenario(context.Background(), "omission-convergence",
		ScenarioOptions{Requests: 200, Concurrency: 4, Seed: 5})
	if err != nil {
		t.Fatalf("scenario failed: %v\nunits: %+v\ninjected: %v", err, res.Units, res.Injected)
	}
	u := res.Units[0]
	if u.OldAvailConfidence < 0.9 || u.NewAvailConfidence > 0.5 {
		t.Fatalf("availability confidences did not separate: old=%.3f new=%.3f", u.OldAvailConfidence, u.NewAvailConfidence)
	}
	if res.Load.Verdicts[VerdictOK] != 200 {
		t.Fatalf("consumer saw omissions: %v", res.Load.Verdicts)
	}
}

func TestCrashRestart(t *testing.T) {
	testutil.CheckGoroutines(t)
	res, err := RunScenario(context.Background(), "crash-restart",
		ScenarioOptions{Requests: 90, Concurrency: 3, Seed: 9})
	if err != nil {
		t.Fatalf("scenario failed: %v\nbatches: %+v\nunits: %+v", err, res.Batches, res.Units)
	}
	if len(res.Batches) != 3 {
		t.Fatalf("want 3 batch reports, got %d", len(res.Batches))
	}
	for i, b := range res.Batches {
		if b.Verdicts[VerdictOK] != b.Requests {
			t.Fatalf("batch %d verdicts %v", i, b.Verdicts)
		}
	}
}

func TestSoakScenarioShort(t *testing.T) {
	testutil.CheckGoroutines(t)
	res, err := RunScenario(context.Background(), "soak",
		ScenarioOptions{Duration: 1500 * time.Millisecond, Concurrency: 4, Seed: 3})
	if err != nil {
		t.Fatalf("soak failed: %v\nsoak: %+v\nload: %+v", err, res.Soak, res.Load)
	}
	s := res.Soak
	if s.GoroutinesBefore <= 0 || s.GoroutinesPeak < s.GoroutinesBefore || s.HeapBeforeKB == 0 {
		t.Fatalf("soak stats not captured: %+v", s)
	}
	if s.GoroutinesAfter > s.GoroutinesBefore+10 {
		t.Fatalf("goroutines %d → %d", s.GoroutinesBefore, s.GoroutinesAfter)
	}
	if len(res.Units) != 2 {
		t.Fatalf("want 2 unit reports, got %d", len(res.Units))
	}
	if res.Load.Requests == 0 || res.Load.Verdicts[VerdictWrong] != 0 {
		t.Fatalf("soak load: %+v", res.Load)
	}
}

// TestBuildMediatorFromPackageDir: the crash-recovery scenario builds
// the daemon from wherever it is run inside the module, here the
// package's own directory rather than the module root.
func TestBuildMediatorFromPackageDir(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin, err := buildMediator(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(bin); err != nil {
		t.Fatal(err)
	}
}
