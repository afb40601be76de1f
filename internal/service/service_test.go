package service

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsupgrade/internal/oracle"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/soap"
)

func startRelease(t *testing.T, version string, plan FaultPlan) (*Release, *httptest.Server) {
	t.Helper()
	rel, err := New(DemoContract(version), DemoBehaviours(), plan)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rel.Handler())
	t.Cleanup(ts.Close)
	return rel, ts
}

func TestCorrectService(t *testing.T) {
	rel, ts := startRelease(t, "1.0", FaultPlan{})
	c := &soap.Client{URL: ts.URL, HTTP: &http.Client{Timeout: 5 * time.Second}}
	var out Operation1Response
	err := c.Call(context.Background(), "operation1",
		Operation1Request{Param1: 21, Param2: "x"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if out.Op1Result != "x/42" {
		t.Fatalf("result = %q", out.Op1Result)
	}
	var sum AddResponse
	if err := c.Call(context.Background(), "add", AddRequest{A: 2, B: 3}, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Sum != 5 {
		t.Fatalf("sum = %d", sum.Sum)
	}
	if rel.Calls() != 2 {
		t.Fatalf("calls = %d", rel.Calls())
	}
	if rel.Injected()[relmodel.Correct] != 2 {
		t.Fatalf("injected = %v", rel.Injected())
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(DemoContract("1.0"), nil, FaultPlan{}); !errors.Is(err, ErrBadService) {
		t.Fatalf("missing handlers: %v", err)
	}
	bad := FaultPlan{Profile: relmodel.Profile{CR: 0.5}}
	if _, err := New(DemoContract("1.0"), DemoBehaviours(), bad); err == nil {
		t.Fatal("broken profile accepted")
	}
}

func TestEvidentFailureInjection(t *testing.T) {
	rel, ts := startRelease(t, "1.1", FaultPlan{
		Profile: relmodel.Profile{CR: 0, ER: 1, NER: 0},
		Seed:    1,
	})
	c := &soap.Client{URL: ts.URL}
	err := c.Call(context.Background(), "add", AddRequest{A: 1, B: 1}, nil)
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if !strings.Contains(f.String, "injected evident failure") {
		t.Fatalf("fault = %+v", f)
	}
	if rel.Injected()[relmodel.EvidentFailure] != 1 {
		t.Fatalf("injected = %v", rel.Injected())
	}
}

func TestNonEvidentFailureUsesFaultyHandler(t *testing.T) {
	_, ts := startRelease(t, "1.1", FaultPlan{
		Profile: relmodel.Profile{CR: 0, ER: 0, NER: 1},
		Seed:    2,
	})
	c := &soap.Client{URL: ts.URL}
	var out AddResponse
	if err := c.Call(context.Background(), "add", AddRequest{A: 2, B: 2}, &out); err != nil {
		t.Fatal(err)
	}
	// Plausible but wrong: the demo's non-evident failure mode.
	if out.Sum != 5 {
		t.Fatalf("sum = %d, want the off-by-one wrong answer 5", out.Sum)
	}
}

func TestNonEvidentFallbackCorruption(t *testing.T) {
	contract := DemoContract("1.1")
	behaviours := DemoBehaviours()
	add := behaviours["add"]
	add.Faulty = nil // force the generic corruption path
	behaviours["add"] = add
	rel, err := New(contract, behaviours, FaultPlan{Profile: relmodel.Profile{NER: 1}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rel.Handler())
	defer ts.Close()
	c := &soap.Client{URL: ts.URL}
	env := soap.EnvelopeRaw([]byte(`<addRequest><a>1</a><b>2</b></addRequest>`))
	resp, err := c.CallRaw(context.Background(), "add", env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(resp), "corrupted") {
		t.Fatalf("generic corruption missing: %s", resp)
	}
}

func TestInjectionFrequencies(t *testing.T) {
	rel, ts := startRelease(t, "1.1", FaultPlan{
		Profile: relmodel.Profile{CR: 0.7, ER: 0.15, NER: 0.15},
		Seed:    4,
	})
	c := &soap.Client{URL: ts.URL, HTTP: &http.Client{Timeout: 5 * time.Second}}
	const n = 400
	for i := 0; i < n; i++ {
		_ = c.Call(context.Background(), "add", AddRequest{A: i, B: i}, nil)
	}
	inj := rel.Injected()
	if inj[relmodel.Correct]+inj[relmodel.EvidentFailure]+inj[relmodel.NonEvidentFailure] != n {
		t.Fatalf("injection accounting: %v", inj)
	}
	if inj[relmodel.Correct] < n/2 || inj[relmodel.EvidentFailure] == 0 || inj[relmodel.NonEvidentFailure] == 0 {
		t.Fatalf("implausible injection counts: %v", inj)
	}
}

func TestGroundTruthHeaders(t *testing.T) {
	_, ts := startRelease(t, "2.0", FaultPlan{})
	resp, err := http.Post(ts.URL, soap.ContentType,
		strings.NewReader(string(soap.EnvelopeRaw([]byte(`<addRequest><a>1</a><b>2</b></addRequest>`)))))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get(VersionHeader); got != "2.0" {
		t.Fatalf("version header = %q", got)
	}
	if got := resp.Header.Get(oracle.InjectionHeader); got != "CR" {
		t.Fatalf("injection header = %q", got)
	}
}

func TestWSDLEndpoint(t *testing.T) {
	_, ts := startRelease(t, "1.0", FaultPlan{})
	resp, err := http.Get(ts.URL + "/wsdl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /wsdl = %d", resp.StatusCode)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	text := string(buf[:n])
	for _, want := range []string{"operation1Request", "addRequest", "WebService1"} {
		if !strings.Contains(text, want) {
			t.Errorf("WSDL missing %q", want)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := startRelease(t, "1.0", FaultPlan{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(VersionHeader) != "1.0" {
		t.Fatalf("healthz = %d %q", resp.StatusCode, resp.Header.Get(VersionHeader))
	}
}

func TestLatencyInjection(t *testing.T) {
	_, ts := startRelease(t, "1.0", FaultPlan{MeanLatency: 5 * time.Millisecond, Seed: 5})
	c := &soap.Client{URL: ts.URL, HTTP: &http.Client{Timeout: 5 * time.Second}}
	start := time.Now()
	const n = 30
	for i := 0; i < n; i++ {
		if err := c.Call(context.Background(), "add", AddRequest{A: 1, B: 2}, nil); err != nil {
			t.Fatal(err)
		}
	}
	// With mean 5 ms over 30 calls the total artificial delay should be
	// clearly measurable (≥ 50 ms even with generous variance).
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("latency injection had no effect: %v for %d calls", elapsed, n)
	}
}

func TestDeterministicInjectionStreams(t *testing.T) {
	relA, err := New(DemoContract("1.0"), DemoBehaviours(), FaultPlan{
		Profile: relmodel.Profile{CR: 0.5, ER: 0.25, NER: 0.25}, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	relB, err := New(DemoContract("1.0"), DemoBehaviours(), FaultPlan{
		Profile: relmodel.Profile{CR: 0.5, ER: 0.25, NER: 0.25}, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		ka, _ := relA.draw(context.Background())
		kb, _ := relB.draw(context.Background())
		if ka != kb {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
}
