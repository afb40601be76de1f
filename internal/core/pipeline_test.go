package core

// Tests for the PR-2 request/transport pipeline: the pooled default
// client, the WSDL scheme derivation, the contract-guarded "<op>Conf"
// routing, and the single-target dispatch fast path.

import (
	"context"
	"crypto/tls"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsupgrade/internal/oracle"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/testutil"
	"wsupgrade/internal/wsdl"
)

// By default the engine builds a wire client for release calls and,
// as its fallback and probe client, the tuned pooled transport:
// http.DefaultTransport keeps only 2 idle connections per host, which
// starves parallel fan-out to the same https release.
func TestDefaultTransport(t *testing.T) {
	e, err := New(Config{Releases: []Endpoint{
		{Version: "1.0", URL: "http://a.invalid"},
		{Version: "1.1", URL: "http://b.invalid"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	if e.wire == nil {
		t.Fatal("no wire client built")
	}
	transport, ok := e.client.Transport.(*http.Transport)
	if !ok {
		t.Fatalf("fallback client transport is %T, want *http.Transport", e.client.Transport)
	}
	if transport.MaxIdleConnsPerHost < 8 {
		t.Fatalf("MaxIdleConnsPerHost = %d; fan-out would thrash connections", transport.MaxIdleConnsPerHost)
	}
	if transport.MaxIdleConns < 2*transport.MaxIdleConnsPerHost {
		t.Fatalf("MaxIdleConns = %d not sized for %d release hosts", transport.MaxIdleConns, 2)
	}
}

// An explicitly configured client is honoured verbatim — as the wire
// client's fallback and the probe client, never as a replacement for
// the wire transport (TestMixedSchemeUnit drives it end to end).
func TestConfiguredClientIsFallbackNotTransport(t *testing.T) {
	custom := &http.Client{Timeout: time.Second}
	e, err := New(Config{
		Releases:     []Endpoint{{Version: "1.0", URL: "http://a.invalid"}},
		InitialPhase: PhaseNewOnly,
		HTTP:         custom,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()
	if e.client != custom {
		t.Fatal("configured HTTP client was replaced")
	}
	if e.wire == nil {
		t.Fatal("configured HTTP client displaced the wire transport")
	}
}

// The one transport selection that remains is by URL scheme: a unit
// whose old release is on http:// (wire-native) and whose new release
// is behind TLS (reached through Config.HTTP as the wire fallback)
// fans out to both, judges and records both, probes both through the
// same client, and tears down to nothing.
func TestMixedSchemeUnit(t *testing.T) {
	testutil.CheckGoroutines(t)
	oldRel, old := startRelease(t, "1.0", service.FaultPlan{})
	// The TLS release always answers wrongly, so a B-only joint record
	// proves its reply was collected and judged, not merely requested.
	newRel, err := service.New(service.DemoContract("1.1"), service.DemoBehaviours(),
		service.FaultPlan{Profile: relmodel.Profile{NER: 1}, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tlsSrv := httptest.NewTLSServer(newRel.Handler())
	t.Cleanup(tlsSrv.Close)

	e, ts := startEngine(t, Config{
		Releases:     []Endpoint{old, {Version: "1.1", URL: tlsSrv.URL}},
		InitialPhase: PhaseParallel,
		Oracle:       oracle.Header{},
		HTTP:         tlsSrv.Client(),
	})
	const n = 6
	for i := 0; i < n; i++ {
		if _, err := callAdd(t, ts.URL, i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if oldRel.Calls() != n || newRel.Calls() != n {
		t.Fatalf("calls http=%d https=%d, want %d each", oldRel.Calls(), newRel.Calls(), n)
	}
	if joint := e.Monitor().Joint(); joint.N != n || joint.BOnly != n {
		t.Fatalf("joint = %+v, want %d B-only records", joint, n)
	}
	for _, h := range e.CheckHealth(context.Background()) {
		if !h.Up || e.Down(h.Release) {
			t.Fatalf("probe of %s (%s): %v", h.Release, h.URL, h.Err)
		}
	}
}

func fetchWSDL(t *testing.T, e *Engine, mutate func(*http.Request)) string {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "http://proxy.example/wsdl", nil)
	if mutate != nil {
		mutate(req)
	}
	rec := httptest.NewRecorder()
	e.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /wsdl: HTTP %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.String()
}

// The published WSDL endpoint must use the scheme the consumer reached
// the engine with, not a hardcoded "http://".
func TestServeWSDLScheme(t *testing.T) {
	contract := service.DemoContract("1.1")
	e, err := New(Config{
		Releases:     []Endpoint{{Version: "1.1", URL: "http://rel.invalid"}},
		InitialPhase: PhaseNewOnly,
		Contract:     &contract,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()

	if text := fetchWSDL(t, e, nil); !strings.Contains(text, "http://proxy.example/") {
		t.Errorf("plain request: endpoint not http:\n%s", text)
	}
	text := fetchWSDL(t, e, func(r *http.Request) { r.TLS = &tls.ConnectionState{} })
	if !strings.Contains(text, "https://proxy.example/") {
		t.Errorf("TLS request: endpoint not https:\n%s", text)
	}
	text = fetchWSDL(t, e, func(r *http.Request) { r.Header.Set("X-Forwarded-Proto", "https") })
	if !strings.Contains(text, "https://proxy.example/") {
		t.Errorf("X-Forwarded-Proto https: endpoint not https:\n%s", text)
	}
	// A proxy chain reports the client-facing hop first.
	text = fetchWSDL(t, e, func(r *http.Request) { r.Header.Set("X-Forwarded-Proto", "https, http") })
	if !strings.Contains(text, "https://proxy.example/") {
		t.Errorf("forwarded chain: endpoint not https:\n%s", text)
	}
	// Terminated TLS downgraded by an internal hop: the header wins.
	text = fetchWSDL(t, e, func(r *http.Request) {
		r.TLS = &tls.ConnectionState{}
		r.Header.Set("X-Forwarded-Proto", "http")
	})
	if !strings.Contains(text, "http://proxy.example/") {
		t.Errorf("header downgrade: endpoint not http:\n%s", text)
	}
}

// A genuine contract operation whose name ends in "Conf" must be proxied
// as itself, not hijacked as a §6.2 confidence variant.
func TestGenuineConfOperationNotHijacked(t *testing.T) {
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if !strings.Contains(string(body), "<GetConfRequest>") {
			t.Errorf("backend received a rewritten request: %s", body)
		}
		w.Header().Set("Content-Type", soap.ContentType)
		_, _ = w.Write(soap.EnvelopeRaw([]byte(`<GetConfResponse><value>7</value></GetConfResponse>`)))
	}))
	defer backend.Close()

	contract := wsdl.Contract{
		Name:            "ConfService",
		TargetNamespace: "urn:conf",
		Version:         "1.0",
		Operations: []wsdl.Operation{{
			Name:   "GetConf",
			Input:  []wsdl.Param{},
			Output: []wsdl.Param{{Name: "value", Type: "s:int"}},
		}},
	}
	e, ts := startEngine(t, Config{
		Releases:      []Endpoint{{Version: "1.0", URL: backend.URL}},
		InitialPhase:  PhaseNewOnly,
		Contract:      &contract,
		EnableConfOps: true,
	})
	_ = e
	c := &soap.Client{URL: ts.URL}
	respEnv, err := c.CallRaw(context.Background(), "GetConf",
		soap.EnvelopeRaw([]byte(`<GetConfRequest></GetConfRequest>`)))
	if err != nil {
		t.Fatalf("genuine GetConf hijacked as confidence variant: %v", err)
	}
	if !strings.Contains(string(respEnv), "<GetConfResponse>") {
		t.Fatalf("response = %s", respEnv)
	}
}

// With a contract configured, "<op>Conf" still works as a §6.2 variant
// when <op> is a real contract operation.
func TestConfVariantStillServedWithContract(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	contract := service.DemoContract("1.1")
	_, ts := startEngine(t, Config{
		Releases:      []Endpoint{old, new_},
		Oracle:        oracle.Header{},
		Inference:     testInference(),
		Contract:      &contract,
		EnableConfOps: true,
	})
	c := &soap.Client{URL: ts.URL}
	respEnv, err := c.CallRaw(context.Background(), "addConf",
		soap.EnvelopeRaw([]byte(`<addConfRequest><a>2</a><b>3</b></addConfRequest>`)))
	if err != nil {
		t.Fatal(err)
	}
	text := string(respEnv)
	if !strings.Contains(text, "<addConfResponse>") || !strings.Contains(text, "<addConf>") {
		t.Fatalf("conf variant not served: %s", text)
	}
	// An unknown "<op>Conf" with a contract is proxied (and rejected by
	// the releases as an evident failure), not served as a variant of a
	// nonexistent operation.
	_, err = c.CallRaw(context.Background(), "ghostConf",
		soap.EnvelopeRaw([]byte(`<ghostConfRequest/>`)))
	var fault *soap.Fault
	if err == nil || !errors.As(err, &fault) {
		t.Fatalf("unknown ghostConf: err = %v, want fault", err)
	}
}

// The single-target phases deliver through the synchronous fast path;
// monitoring must still see the exchange.
func TestSingleTargetFastPathRecords(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	for _, tc := range []struct {
		phase  Phase
		winner string
	}{
		{PhaseOldOnly, "1.0"},
		{PhaseNewOnly, "1.1"},
	} {
		e, ts := startEngine(t, Config{
			Releases:     []Endpoint{old, new_},
			InitialPhase: tc.phase,
			Oracle:       oracle.Header{},
		})
		out, err := callAdd(t, ts.URL, 20, 22)
		if err != nil {
			t.Fatalf("%v: %v", tc.phase, err)
		}
		if out.Sum != 42 {
			t.Fatalf("%v: sum = %d", tc.phase, out.Sum)
		}
		stats, err := e.Stats(tc.winner)
		if err != nil {
			t.Fatalf("%v: %v", tc.phase, err)
		}
		if stats.Demands != 1 || stats.Responses != 1 {
			t.Fatalf("%v: stats = %+v", tc.phase, stats)
		}
		otherVersion := "1.1"
		if tc.winner == "1.1" {
			otherVersion = "1.0"
		}
		if other, err := e.Stats(otherVersion); err == nil && other.Demands != 0 {
			t.Fatalf("%v: unused release was invoked: %+v", tc.phase, other)
		}
	}
}
