package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/protocol"
	"wsupgrade/internal/protocol/jsoncodec"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
)

// The cross-protocol conformance suite: the same logical demand stream,
// driven through a SOAP-fronted unit and a JSON-fronted unit whose
// releases inject identical seeded fault streams, must produce
// identical adjudication outcomes (per-demand winner and
// success/failure), identical per-release monitoring counts, and
// identical §5.1 joint (old, new) counts. The wire bytes differ —
// everything the mediator concludes from them must not.

// demandOutcome is one demand's protocol-independent observable result.
type demandOutcome struct {
	OK     bool   // HTTP 200 with a decodable payload
	Winner string // X-Wsupgrade-Winner
	Sum    int    // decoded add result (only when OK)
}

// conformanceCounts is the protocol-independent monitoring summary.
type conformanceCounts struct {
	Demands, Responses, Evident, Judged int
}

func releaseCounts(t *testing.T, e *Engine, version string) conformanceCounts {
	t.Helper()
	s, err := e.Stats(version)
	if err != nil {
		t.Fatalf("stats %s: %v", version, err)
	}
	return conformanceCounts{s.Demands, s.Responses, s.Evident, s.JudgedFailures}
}

// conformancePlans returns the two releases' fault plans; identical
// seeds on both sides of the comparison give identical injection
// streams.
func conformancePlans() (old, new_ service.FaultPlan) {
	old = service.FaultPlan{Profile: relmodel.Profile{CR: 0.9, ER: 0.05, NER: 0.05}, Seed: 101}
	new_ = service.FaultPlan{Profile: relmodel.Profile{CR: 0.7, ER: 0.15, NER: 0.15}, Seed: 202}
	return old, new_
}

func conformanceEngineConfig(targets []Endpoint, codec protocol.Codec) Config {
	return Config{
		Releases:     targets,
		Timeout:      5 * time.Second,
		InitialPhase: PhaseParallel,
		Oracle:       oracle.Reference{Release: targets[0].Version, Codec: codec},
		// Preferred is fully deterministic with two releases (the
		// fallback never has more than one valid reply to choose from).
		// RandomValid draws from a pooled per-goroutine RNG stream
		// whose identity is scheduling-dependent — demand-for-demand
		// winner identity across two engines is not part of its
		// contract, and this suite compares exactly that.
		Adjudicator: adjudicate.Preferred{Release: targets[0].Version},
		Codec:       codec,
		Seed:        7,
	}
}

// driveSOAP posts one add demand through the SOAP gateway.
func driveSOAP(t *testing.T, client *http.Client, url string, a, b int) demandOutcome {
	t.Helper()
	env, err := soap.Envelope(service.AddRequest{A: a, B: b})
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Post(url, soap.ContentType, bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := demandOutcome{Winner: res.Header.Get("X-Wsupgrade-Winner")}
	if res.StatusCode != http.StatusOK {
		return out
	}
	parsed, err := soap.Decode(body)
	if err != nil || parsed.Fault != nil {
		return out
	}
	var resp service.AddResponse
	if err := parsed.DecodeBody(&resp); err != nil {
		return out
	}
	out.OK = true
	out.Sum = resp.Sum
	return out
}

// driveJSON posts the same logical demand through the JSON gateway.
func driveJSON(t *testing.T, client *http.Client, url string, a, b int) demandOutcome {
	t.Helper()
	body, err := json.Marshal(service.AddRequest{A: a, B: b})
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.Post(url+"/add", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := demandOutcome{Winner: res.Header.Get("X-Wsupgrade-Winner")}
	if res.StatusCode != http.StatusOK {
		return out
	}
	var resp service.AddResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return out
	}
	out.OK = true
	out.Sum = resp.Sum
	return out
}

func TestCrossProtocolConformance(t *testing.T) {
	const demands = 150
	client := &http.Client{Timeout: 10 * time.Second}

	// SOAP side.
	oldPlan, newPlan := conformancePlans()
	soapOld, err := service.New(service.DemoContract("1.0"), service.DemoBehaviours(), oldPlan)
	if err != nil {
		t.Fatal(err)
	}
	soapNew, err := service.New(service.DemoContract("2.0"), service.DemoBehaviours(), newPlan)
	if err != nil {
		t.Fatal(err)
	}
	soapOldTS := httptest.NewServer(soapOld.Handler())
	t.Cleanup(soapOldTS.Close)
	soapNewTS := httptest.NewServer(soapNew.Handler())
	t.Cleanup(soapNewTS.Close)
	soapEngine, soapTS := startEngine(t, conformanceEngineConfig([]Endpoint{
		{Version: "1.0", URL: soapOldTS.URL},
		{Version: "2.0", URL: soapNewTS.URL},
	}, nil)) // nil codec = SOAP default

	// JSON side: identical versions, seeds and profiles.
	oldPlan, newPlan = conformancePlans()
	jsonOld, err := service.New(service.DemoContract("1.0"), service.DemoBehaviours(), oldPlan)
	if err != nil {
		t.Fatal(err)
	}
	jsonNew, err := service.New(service.DemoContract("2.0"), service.DemoBehaviours(), newPlan)
	if err != nil {
		t.Fatal(err)
	}
	jsonOldTS := httptest.NewServer(jsonOld.Handler())
	t.Cleanup(jsonOldTS.Close)
	jsonNewTS := httptest.NewServer(jsonNew.Handler())
	t.Cleanup(jsonNewTS.Close)
	jsonEngine, jsonTS := startEngine(t, conformanceEngineConfig([]Endpoint{
		{Version: "1.0", URL: jsonOldTS.URL},
		{Version: "2.0", URL: jsonNewTS.URL},
	}, jsoncodec.Default))

	for i := 0; i < demands; i++ {
		a, b := i, i*3+1
		so := driveSOAP(t, client, soapTS.URL, a, b)
		jo := driveJSON(t, client, jsonTS.URL, a, b)
		if so != jo {
			t.Fatalf("demand %d diverged: soap=%+v json=%+v", i, so, jo)
		}
		if so.OK && so.Sum != a+b && so.Sum != a+b+1 {
			t.Fatalf("demand %d: implausible sum %d for %d+%d", i, so.Sum, a, b)
		}
	}

	// Identical per-release monitoring counts.
	for _, v := range []string{"1.0", "2.0"} {
		sc := releaseCounts(t, soapEngine, v)
		jc := releaseCounts(t, jsonEngine, v)
		if sc != jc {
			t.Errorf("release %s counts diverged: soap=%+v json=%+v", v, sc, jc)
		}
		if sc.Demands != demands {
			t.Errorf("release %s: %d demands recorded, want %d", v, sc.Demands, demands)
		}
	}

	// Identical §5.1 joint (old, new) counts — the confidence inputs.
	if sj, jj := soapEngine.Monitor().Joint(), jsonEngine.Monitor().Joint(); sj != jj {
		t.Errorf("joint counts diverged: soap=%+v json=%+v", sj, jj)
	}

	// The injected ground truth matched demand for demand, so the
	// releases themselves must agree too.
	if so, jo := soapOld.Injected(), jsonOld.Injected(); !sameInjection(so, jo) {
		t.Errorf("old release injection diverged: soap=%v json=%v", so, jo)
	}
	if sn, jn := soapNew.Injected(), jsonNew.Injected(); !sameInjection(sn, jn) {
		t.Errorf("new release injection diverged: soap=%v json=%v", sn, jn)
	}
}

func sameInjection(a, b map[relmodel.OutcomeKind]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestContentTypeContradictionRejected covers the 415 gateway
// rejection on both codecs: a request whose Content-Type contradicts
// the unit's protocol is refused before any decode, instead of
// surfacing as a confusing client fault.
func TestContentTypeContradictionRejected(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, soapTS := startEngine(t, Config{
		Releases:     []Endpoint{old},
		InitialPhase: PhaseOldOnly,
	})

	jsonRel, err := service.New(service.DemoContract("1.0"), service.DemoBehaviours(), service.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	jsonRelTS := httptest.NewServer(jsonRel.Handler())
	t.Cleanup(jsonRelTS.Close)
	_, jsonTS := startEngine(t, Config{
		Releases:     []Endpoint{{Version: "1.0", URL: jsonRelTS.URL}},
		InitialPhase: PhaseOldOnly,
		Codec:        jsoncodec.Default,
	})

	client := &http.Client{Timeout: 5 * time.Second}

	// JSON posted to the SOAP unit: 415, not a SOAP client fault.
	res, err := client.Post(soapTS.URL, "application/json", bytes.NewReader([]byte(`{"a":1,"b":2}`)))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("JSON body on SOAP unit: status %d, want 415", res.StatusCode)
	}

	// XML posted to the JSON unit: 415, with a JSON error body.
	env, err := soap.Envelope(service.AddRequest{A: 1, B: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err = client.Post(jsonTS.URL+"/add", soap.ContentType, bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("XML body on JSON unit: status %d, want 415", res.StatusCode)
	}
	var envlp struct {
		Error *struct {
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &envlp); err != nil || envlp.Error == nil {
		t.Errorf("415 body is not the JSON error shape: %q", body)
	}

	// Matching and absent Content-Types still pass on both units.
	for _, tc := range []struct {
		url, ct string
		payload []byte
	}{
		{soapTS.URL, soap.ContentType, env},
		{soapTS.URL, "", env},
		{jsonTS.URL + "/add", "application/json", []byte(`{"a":1,"b":2}`)},
		{jsonTS.URL + "/add", "", []byte(`{"a":1,"b":2}`)},
	} {
		req, err := http.NewRequest(http.MethodPost, tc.url, bytes.NewReader(tc.payload))
		if err != nil {
			t.Fatal(err)
		}
		if tc.ct != "" {
			req.Header.Set("Content-Type", tc.ct)
		}
		res, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusOK {
			t.Errorf("POST %s (ct %q): status %d, want 200", tc.url, tc.ct, res.StatusCode)
		}
	}
}

// TestJSONGatewayEndToEnd drives the §6.2 running example through the
// JSON gateway: routing, adjudication and error rendering all speak
// JSON.
func TestJSONGatewayEndToEnd(t *testing.T) {
	rel, err := service.New(service.DemoContract("1.0"), service.DemoBehaviours(), service.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	relTS := httptest.NewServer(rel.Handler())
	t.Cleanup(relTS.Close)
	_, ts := startEngine(t, Config{
		Releases:     []Endpoint{{Version: "1.0", URL: relTS.URL}},
		InitialPhase: PhaseOldOnly,
		Codec:        jsoncodec.Default,
	})
	client := &http.Client{Timeout: 5 * time.Second}

	res, err := client.Post(ts.URL+"/operation1", "application/json",
		bytes.NewReader([]byte(`{"param1":21,"param2":"x"}`)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("operation1: status %d body %q", res.StatusCode, body)
	}
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var out service.Operation1Response
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("x/%d", 21*2); out.Op1Result != want {
		t.Errorf("Op1Result = %q, want %q", out.Op1Result, want)
	}

	// A malformed body is a 400 JSON error, not a SOAP fault.
	res, err = client.Post(ts.URL+"/add", "application/json", bytes.NewReader([]byte(`{"a":`)))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d body %q, want 400", res.StatusCode, body)
	}

	// Method rejection speaks JSON too.
	res, err = client.Get(ts.URL + "/add")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", res.StatusCode)
	}
}
