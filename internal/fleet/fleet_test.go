package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/core"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/protocol/jsoncodec"
	"wsupgrade/internal/registry"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/stats"
	"wsupgrade/internal/testutil"
)

// startRelease boots one live fault-injected release.
func startRelease(t *testing.T, version string, plan service.FaultPlan) (*service.Release, core.Endpoint) {
	t.Helper()
	rel, err := service.New(service.DemoContract(version), service.DemoBehaviours(), plan)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rel.Handler())
	t.Cleanup(ts.Close)
	return rel, core.Endpoint{Version: version, URL: ts.URL}
}

func testInference() *bayes.WhiteBoxConfig {
	return &bayes.WhiteBoxConfig{
		PriorA: stats.ScaledBeta{Alpha: 1, Beta: 1, Upper: 0.4},
		PriorB: stats.ScaledBeta{Alpha: 1, Beta: 1, Upper: 0.4},
		GridA:  30, GridB: 30, GridC: 8, GridAB: 32,
	}
}

// twoUnitFleet builds a fleet of two live units ("flights", "hotels"),
// each with two releases.
func twoUnitFleet(t *testing.T, mutate func(*Config)) (*Fleet, *httptest.Server) {
	t.Helper()
	_, f0 := startRelease(t, "1.0", service.FaultPlan{})
	_, f1 := startRelease(t, "1.1", service.FaultPlan{})
	_, h0 := startRelease(t, "1.0", service.FaultPlan{})
	_, h1 := startRelease(t, "1.1", service.FaultPlan{})
	cfg := Config{Units: []UnitConfig{
		{Name: "flights", Engine: core.Config{
			Releases: []core.Endpoint{f0, f1}, Oracle: oracle.Header{}}},
		{Name: "hotels", Engine: core.Config{
			Releases: []core.Endpoint{h0, h1}, Oracle: oracle.Header{}}},
	}}
	if mutate != nil {
		mutate(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f)
	t.Cleanup(func() {
		ts.Close()
		if err := f.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return f, ts
}

func callUnit(t *testing.T, base, unit string, a, b int) (service.AddResponse, error) {
	t.Helper()
	c := &soap.Client{URL: base + "/" + unit, HTTP: &http.Client{Timeout: 5 * time.Second}}
	var out service.AddResponse
	err := c.Call(context.Background(), "add", service.AddRequest{A: a, B: b}, &out)
	return out, err
}

func getJSON(t *testing.T, url string, v interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d: %s", url, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: %v in %s", url, err, body)
	}
}

func postJSON(t *testing.T, url, body string, wantStatus int) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s %s: HTTP %d (want %d): %s", url, body, resp.StatusCode, wantStatus, msg)
	}
}

func del(t *testing.T, url string, wantStatus int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("DELETE %s: HTTP %d (want %d): %s", url, resp.StatusCode, wantStatus, msg)
	}
}

func TestConfigValidation(t *testing.T) {
	rel := []core.Endpoint{{Version: "1.0", URL: "http://a.invalid"}}
	single := func(u UnitConfig) Config { return Config{Units: []UnitConfig{u}} }
	old := func() core.Config {
		return core.Config{Releases: rel, InitialPhase: core.PhaseOldOnly}
	}
	cases := map[string]Config{
		"no units":      {},
		"empty name":    single(UnitConfig{Engine: old()}),
		"slash name":    single(UnitConfig{Name: "a/b", Engine: old()}),
		"reserved name": single(UnitConfig{Name: "fleet", Engine: old()}),
		"bad engine":    single(UnitConfig{Name: "a", Engine: core.Config{}}),
		"duplicate unit": {Units: []UnitConfig{
			{Name: "a", Engine: old()},
			{Name: "a", Engine: old()},
		}},
		"duplicate service": {Units: []UnitConfig{
			{Name: "a", Service: "s", Engine: old()},
			{Name: "b", Service: "s", Engine: old()},
		}},
		"duplicate host": {Units: []UnitConfig{
			{Name: "a", Hosts: []string{"x.example"}, Engine: old()},
			{Name: "b", Hosts: []string{"x.example"}, Engine: old()},
		}},
	}
	for name, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestPathRoutingReachesEachUnit(t *testing.T) {
	_, ts := twoUnitFleet(t, nil)
	for _, unit := range []string{"flights", "hotels"} {
		out, err := callUnit(t, ts.URL, unit, 20, 22)
		if err != nil {
			t.Fatalf("%s: %v", unit, err)
		}
		if out.Sum != 42 {
			t.Fatalf("%s: sum = %d", unit, out.Sum)
		}
	}
	// Per-unit sub-paths reach the unit engine's own surface.
	resp, err := http.Get(ts.URL + "/flights/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/flights/healthz = %d", resp.StatusCode)
	}
	// Unknown units and the bare root 404.
	for _, path := range []string{"/cruises/healthz", "/"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
	}
}

func TestHostRoutingOwnsWholePathSpace(t *testing.T) {
	f, _ := twoUnitFleet(t, func(cfg *Config) {
		cfg.Units[0].Hosts = []string{"flights.example"}
	})
	env := soap.EnvelopeRaw([]byte(`<addRequest><a>1</a><b>2</b></addRequest>`))
	req := httptest.NewRequest(http.MethodPost, "http://flights.example/", bytes.NewReader(env))
	req.Header.Set("Content-Type", soap.ContentType)
	rec := httptest.NewRecorder()
	f.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("host-routed request = %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "<sum>3</sum>") {
		t.Fatalf("body = %s", rec.Body.String())
	}
	// The port is ignored for host matching.
	req = httptest.NewRequest(http.MethodGet, "http://flights.example:8443/healthz", nil)
	req.Host = "flights.example:8443"
	rec = httptest.NewRecorder()
	f.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("host:port-routed healthz = %d", rec.Code)
	}
}

func TestSharedTransportAcrossUnits(t *testing.T) {
	f, ts := twoUnitFleet(t, nil)
	if f.wire == nil {
		t.Fatal("fleet did not build the shared wire transport")
	}
	// Both units' dispatch traffic must ride the one shared wire client,
	// not per-unit pools.
	for _, unit := range []string{"flights", "hotels"} {
		if _, err := callUnit(t, ts.URL, unit, 1, 2); err != nil {
			t.Fatalf("%s: %v", unit, err)
		}
	}
}

// countingTransport counts the requests that ride a net/http client.
type countingTransport struct{ n *atomic.Int64 }

func (c countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.n.Add(1)
	return http.DefaultTransport.RoundTrip(r)
}

// A fleet configured with an explicit net/http client keeps the shared
// wire transport for release calls and uses the client for what wire
// does not carry: the https fallback and every unit's /healthz probes.
func TestConfiguredClientIsFallbackAndProbeClient(t *testing.T) {
	var viaClient atomic.Int64
	shared := &http.Client{Timeout: 5 * time.Second, Transport: countingTransport{&viaClient}}
	f, ts := twoUnitFleet(t, func(cfg *Config) { cfg.HTTP = shared })
	if f.wire == nil || f.fallback != shared || f.ownsFallback {
		t.Fatalf("wire=%v fallback==configured=%v ownsFallback=%v, want a wire client over the caller's client",
			f.wire != nil, f.fallback == shared, f.ownsFallback)
	}
	if _, err := callUnit(t, ts.URL, "flights", 1, 2); err != nil {
		t.Fatal(err)
	}
	if n := viaClient.Load(); n != 0 {
		t.Fatalf("%d http:// release calls went through net/http, want all on wire", n)
	}
	for _, h := range f.units[0].engine.CheckHealth(context.Background()) {
		if !h.Up {
			t.Fatalf("probe of %s: %v", h.Release, h.Err)
		}
	}
	if n := viaClient.Load(); n != 2 {
		t.Fatalf("%d probes through the configured client, want 2", n)
	}
}

func TestAdminStatusAndManagement(t *testing.T) {
	_, ts := twoUnitFleet(t, nil)

	var units []UnitStatus
	getJSON(t, ts.URL+"/fleet/units", &units)
	if len(units) != 2 || units[0].Unit != "flights" || units[1].Unit != "hotels" {
		t.Fatalf("units = %+v", units)
	}
	if units[0].Phase != "parallel" || len(units[0].Releases) != 2 {
		t.Fatalf("flights status = %+v", units[0])
	}

	// SetPhase via admin.
	postJSON(t, ts.URL+"/fleet/units/flights/phase", `{"phase":"new-only"}`, http.StatusOK)
	var st UnitStatus
	getJSON(t, ts.URL+"/fleet/units/flights", &st)
	if st.Phase != "new-only" {
		t.Fatalf("phase after admin set = %s", st.Phase)
	}
	// Illegal §4.1 transition rejected with 409.
	postJSON(t, ts.URL+"/fleet/units/hotels/phase", `{"phase":"observation"}`, http.StatusConflict)
	// Unknown phase rejected.
	postJSON(t, ts.URL+"/fleet/units/hotels/phase", `{"phase":"sideways"}`, http.StatusBadRequest)

	// SetMode via admin.
	postJSON(t, ts.URL+"/fleet/units/hotels/mode", `{"mode":"dynamic","quorum":2}`, http.StatusOK)
	getJSON(t, ts.URL+"/fleet/units/hotels", &st)
	if st.Mode != "parallel-dynamic" {
		t.Fatalf("mode after admin set = %s", st.Mode)
	}
	postJSON(t, ts.URL+"/fleet/units/hotels/mode", `{"mode":"warp"}`, http.StatusBadRequest)

	// AddRelease / RemoveRelease via admin.
	_, extra := startRelease(t, "1.2", service.FaultPlan{})
	body, err := json.Marshal(extra)
	if err != nil {
		t.Fatal(err)
	}
	postJSON(t, ts.URL+"/fleet/units/hotels/releases", string(body), http.StatusOK)
	getJSON(t, ts.URL+"/fleet/units/hotels", &st)
	if len(st.Releases) != 3 {
		t.Fatalf("releases after add = %+v", st.Releases)
	}
	// Duplicate add rejected.
	postJSON(t, ts.URL+"/fleet/units/hotels/releases", string(body), http.StatusBadRequest)
	del(t, ts.URL+"/fleet/units/hotels/releases/1.2", http.StatusOK)
	getJSON(t, ts.URL+"/fleet/units/hotels", &st)
	if len(st.Releases) != 2 {
		t.Fatalf("releases after delete = %+v", st.Releases)
	}
	del(t, ts.URL+"/fleet/units/hotels/releases/ghost", http.StatusNotFound)

	// Unknown unit 404s.
	resp, err := http.Get(ts.URL + "/fleet/units/cruises")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown unit admin = %d", resp.StatusCode)
	}
}

func TestAdminConfidence(t *testing.T) {
	_, ts := twoUnitFleet(t, func(cfg *Config) {
		cfg.Units[0].Engine.Inference = testInference()
	})
	// Generate some evidence on flights.
	for i := 0; i < 10; i++ {
		if _, err := callUnit(t, ts.URL, "flights", i, 1); err != nil {
			t.Fatal(err)
		}
	}
	var rep core.ConfidenceReport
	getJSON(t, ts.URL+"/fleet/units/flights/confidence", &rep)
	if rep.Demands != 10 || rep.Published <= 0 {
		t.Fatalf("confidence = %+v", rep)
	}
	// Unit without inference: 400.
	resp, err := http.Get(ts.URL + "/fleet/units/hotels/confidence")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no-inference confidence = %d", resp.StatusCode)
	}
	// The posterior is expensive, so status computes it only on opt-in.
	var units []UnitStatus
	getJSON(t, ts.URL+"/fleet/units?confidence=1", &units)
	if units[0].Confidence == nil || units[1].Confidence != nil {
		t.Fatalf("opt-in status confidence = %+v", units)
	}
	var plain []UnitStatus
	getJSON(t, ts.URL+"/fleet/units", &plain)
	if plain[0].Confidence != nil {
		t.Fatalf("default status ran the posterior: %+v", plain[0])
	}
}

// The admin token guards every management endpoint; the liveness probe
// and consumer traffic stay open; the registry callback carries the
// token in its subscribed URL.
func TestAdminTokenGuardsManagement(t *testing.T) {
	fl, ts := twoUnitFleet(t, func(cfg *Config) { cfg.AdminToken = "s3cret" })

	// Consumer traffic and liveness are unaffected.
	if _, err := callUnit(t, ts.URL, "flights", 1, 2); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/fleet/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz with token set = %d", resp.StatusCode)
	}

	// Unauthenticated management: 401, and nothing changed.
	for _, probe := range []func() (*http.Response, error){
		func() (*http.Response, error) { return http.Get(ts.URL + "/fleet/units") },
		func() (*http.Response, error) {
			return http.Post(ts.URL+"/fleet/units/flights/phase", "application/json",
				strings.NewReader(`{"phase":"new-only"}`))
		},
		func() (*http.Response, error) {
			return http.Post(ts.URL+"/fleet/notify", "text/xml",
				strings.NewReader(`<entry><name>flights</name><version>6.6</version><url>http://evil.invalid</url></entry>`))
		},
	} {
		resp, err := probe()
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("unauthenticated admin = %d", resp.StatusCode)
		}
	}
	flights, _ := fl.Unit("flights")
	if flights.Engine().Phase() != core.PhaseParallel || len(flights.Engine().Releases()) != 2 {
		t.Fatal("unauthenticated request mutated the unit")
	}

	// Bearer token and query token both authorize.
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/fleet/units", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer s3cret")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bearer-authorized = %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/fleet/units?token=s3cret")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query-authorized = %d", resp.StatusCode)
	}
	// Wrong token stays out.
	resp, err = http.Get(ts.URL + "/fleet/units?token=wrong")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token = %d", resp.StatusCode)
	}

	// Subscribe embeds the token in the callback URL, so registry
	// notifications still reach the guarded fan-in.
	reg := registry.NewServer()
	regTS := httptest.NewServer(reg)
	defer regTS.Close()
	regClient := &registry.Client{Base: regTS.URL}
	ctx := context.Background()
	if err := regClient.Publish(ctx, registry.Entry{
		Name: "flights", Version: "1.1", URL: "http://flights.invalid"}); err != nil {
		t.Fatal(err)
	}
	if err := fl.Subscribe(ctx, regClient, ts.URL); err != nil {
		t.Fatal(err)
	}
	_, f2 := startRelease(t, "1.2", service.FaultPlan{})
	if err := regClient.Publish(ctx, registry.Entry{
		Name: "flights", Version: f2.Version, URL: f2.URL}); err != nil {
		t.Fatal(err)
	}
	if got := len(flights.Engine().Releases()); got != 3 {
		t.Fatalf("authorized notification did not deploy: %d releases", got)
	}
}

func TestAggregatedHealthz(t *testing.T) {
	// hotels gets one live and one dead release; flights is healthy.
	_, f0 := startRelease(t, "1.0", service.FaultPlan{})
	_, f1 := startRelease(t, "1.1", service.FaultPlan{})
	_, h0 := startRelease(t, "1.0", service.FaultPlan{})
	dead := core.Endpoint{Version: "1.1", URL: "http://127.0.0.1:1"}
	fl, err := New(Config{Units: []UnitConfig{
		{Name: "flights", Engine: core.Config{
			Releases: []core.Endpoint{f0, f1}, Timeout: 500 * time.Millisecond}},
		{Name: "hotels", Engine: core.Config{
			Releases: []core.Endpoint{h0, dead}, Timeout: 500 * time.Millisecond}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	ts := httptest.NewServer(fl)
	defer ts.Close()

	var results []UnitHealth
	getJSON(t, ts.URL+"/fleet/healthz", &results)
	if len(results) != 2 {
		t.Fatalf("results = %+v", results)
	}
	for _, uh := range results {
		switch uh.Unit {
		case "flights":
			if uh.Up != 2 || len(uh.DownList) != 0 {
				t.Fatalf("flights health = %+v", uh)
			}
		case "hotels":
			if uh.Up != 1 || len(uh.DownList) != 1 || uh.DownList[0] != "1.1" {
				t.Fatalf("hotels health = %+v", uh)
			}
		}
	}
	// The health marks feed the unit's dispatch skip set.
	if !fl.byName["hotels"].engine.Down("1.1") {
		t.Fatal("dead release not marked down on the unit engine")
	}
	// A unit with every release down turns the aggregate 503.
	allDead, err := New(Config{Units: []UnitConfig{
		{Name: "void", Engine: core.Config{
			Releases:     []core.Endpoint{dead},
			InitialPhase: core.PhaseOldOnly,
			Timeout:      300 * time.Millisecond,
		}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer allDead.Close()
	ts2 := httptest.NewServer(allDead)
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/fleet/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("all-down fleet healthz = %d", resp.StatusCode)
	}
}

// The fleet's loop is the one health loop: its rounds mark a release
// whose /healthz is not 200 down, and leave healthy ones up.
func TestStartHealthChecks(t *testing.T) {
	notFound := httptest.NewServer(nil) // serves 404 on /healthz
	t.Cleanup(notFound.Close)
	fl, _ := twoUnitFleet(t, func(cfg *Config) { cfg.Units[1].Engine.Releases[1].URL = notFound.URL })
	stop, err := fl.StartHealthChecks(10 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	hotels := fl.byName["hotels"].engine
	deadline := time.Now().Add(10 * time.Second)
	for !hotels.Down("1.1") {
		if time.Now().After(deadline) {
			testutil.FatalWithStacks(t, "the loop never marked the 404 release down")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	if hotels.Down("1.0") || fl.byName["flights"].engine.Down("1.1") {
		t.Fatal("the loop marked a healthy release down")
	}
	if _, err := fl.StartHealthChecks(0); err == nil {
		t.Fatal("zero interval accepted")
	}
}

// Regression test for a shutdown-latency bug the ctxhygiene analyzer
// surfaced: probes used to derive from context.Background(), so stop()
// had to wait out an in-flight probe's full timeout. The prober's stop()
// must cancel an in-flight unit probe instead.
func TestStopCancelsInFlightProbe(t *testing.T) {
	entered := make(chan struct{}, 1)
	f := healthFleet(t, hangingHealthz(entered))
	const interval = 800 * time.Millisecond
	stop, err := f.StartHealthChecks(interval)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		testutil.FatalWithStacks(t, "probe never reached the endpoint")
	}
	start := time.Now()
	stop()
	if d := time.Since(start); d > interval/2 {
		t.Fatalf("stop() took %v; an in-flight probe must be cancelled, not waited out", d)
	}
}

// healthFleet hosts one unit whose two releases answer /healthz with h.
func healthFleet(t *testing.T, h http.HandlerFunc) *Fleet {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	f, err := New(Config{Units: []UnitConfig{{
		Name: "flights",
		Engine: core.Config{
			Releases: []core.Endpoint{{Version: "1.0", URL: srv.URL}, {Version: "1.1", URL: srv.URL}},
			Oracle:   oracle.Header{},
		},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := f.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return f
}

// hangingHealthz signals entered, without blocking, and answers nothing
// until its client gives up.
func hangingHealthz(entered chan<- struct{}) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-r.Context().Done()
	}
}

// A release whose /healthz answers in 30 ms, well inside its 2 s release
// timeout, is up even under a 10 ms loop: a probe is bounded by the
// release timeout, not by the loop's interval.
func TestHealthLoopKeepsSlowReleaseUp(t *testing.T) {
	var answered atomic.Int32
	f := healthFleet(t, func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(30 * time.Millisecond)
		answered.Add(1)
	})
	stop, err := f.StartHealthChecks(10 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for answered.Load() < 6 { // three rounds over the two releases
		if time.Now().After(deadline) {
			stop()
			testutil.FatalWithStacks(t, "the loop never completed three rounds")
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	e := f.Units()[0].Engine()
	if e.Down("1.0") || e.Down("1.1") {
		t.Fatal("the loop marked a slow but healthy release down")
	}
}

// A stop() that lands mid-probe leaves the marks as they were: the
// cancelled probe says nothing about its release.
func TestHealthLoopStopKeepsMarks(t *testing.T) {
	entered := make(chan struct{}, 1)
	f := healthFleet(t, hangingHealthz(entered))
	stop, err := f.StartHealthChecks(300 * time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		stop()
		testutil.FatalWithStacks(t, "probe never reached the endpoint")
	}
	stop()
	e := f.Units()[0].Engine()
	if e.Down("1.0") || e.Down("1.1") {
		t.Fatal("a stop mid-probe marked a release down")
	}
}

// Every 405 carries the Allow header RFC 9110 §15.5.6 requires, naming
// the method the resource takes: the engine's demand path through both
// codecs, the notification fan-in, the admin API and the event stream.
func TestMethodNotAllowedCarriesAllow(t *testing.T) {
	_, f0 := startRelease(t, "1.0", service.FaultPlan{})
	fl, err := New(Config{Units: []UnitConfig{
		{Name: "soap", Engine: core.Config{Releases: []core.Endpoint{f0}, InitialPhase: core.PhaseOldOnly}},
		{Name: "json", Engine: core.Config{Releases: []core.Endpoint{f0}, InitialPhase: core.PhaseOldOnly, Codec: jsoncodec.Default}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = fl.Close() })
	ts := httptest.NewServer(fl)
	t.Cleanup(ts.Close)
	for _, c := range []struct{ method, path, allow string }{
		{http.MethodGet, "/soap/", http.MethodPost},
		{http.MethodGet, "/json/add", http.MethodPost},
		{http.MethodGet, "/fleet/notify", http.MethodPost},
		{http.MethodPost, "/fleet/units", http.MethodGet},
		{http.MethodGet, "/fleet/units/soap/phase", http.MethodPost},
		{http.MethodGet, "/fleet/units/soap/mode", http.MethodPost},
		{http.MethodGet, "/fleet/units/soap/releases", http.MethodPost},
		{http.MethodGet, "/fleet/units/soap/releases/1.0", http.MethodDelete},
		{http.MethodPost, "/fleet/units/soap/confidence", http.MethodGet},
		{http.MethodPost, "/fleet/events", http.MethodGet},
	} {
		req, err := http.NewRequest(c.method, ts.URL+c.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != c.allow {
			t.Errorf("%s %s: %d, Allow %q; want 405, Allow %q", c.method, c.path, resp.StatusCode, resp.Header.Get("Allow"), c.allow)
		}
	}
}
