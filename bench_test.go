// Benchmarks regenerating every table and figure of the paper's
// evaluation (the rows/series themselves are printed by cmd/repro; the
// benches measure the cost of regeneration and carry the ablations
// called out in DESIGN.md §7).
//
// Run everything:  go test -bench=. -benchmem
// One experiment:  go test -bench=BenchmarkTable5
package wsupgrade

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/bayes"
	"wsupgrade/internal/httpx"
	"wsupgrade/internal/journal"
	"wsupgrade/internal/monitor"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/protocol/jsoncodec"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/repro"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/stats"
	"wsupgrade/internal/xrand"
)

// benchGrid is the full-resolution inference grid used by cmd/repro.
var benchGrid = repro.GridConfig{A: 80, B: 80, C: 24, AB: 120}

// BenchmarkTable2Scenario1 regenerates the Scenario 1 block of Table 2
// (duration of managed upgrade under three criteria × three detection
// regimes).
func BenchmarkTable2Scenario1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := repro.RunSwitchStudy(repro.StudyConfig{
			Scenario: relmodel.Scenario1(),
			Step:     500,
			Grid:     benchGrid,
			Seed:     42,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Regimes[repro.RegimePerfect].Criteria[repro.Criterion2].Attained {
			b.Fatal("scenario 1 criterion 2 should not be attainable with perfect detection")
		}
	}
}

// BenchmarkTable2Scenario2 regenerates the Scenario 2 block of Table 2.
func BenchmarkTable2Scenario2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := repro.RunSwitchStudy(repro.StudyConfig{
			Scenario:   relmodel.Scenario2(),
			Step:       100,
			MaxDemands: 15000,
			Grid:       benchGrid,
			Seed:       42,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Regimes[repro.RegimePerfect].Criteria[repro.Criterion1].Attained {
			b.Fatal("scenario 2 criterion 1 must be attainable")
		}
	}
}

// BenchmarkFigure7 regenerates the Scenario 1 percentile trajectories
// (Fig 7): five series over 50,000 demands.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := repro.RunSwitchStudy(repro.StudyConfig{
			Scenario: relmodel.Scenario1(),
			Step:     2000,
			Grid:     benchGrid,
			Seed:     42,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Trajectory) == 0 {
			b.Fatal("no trajectory")
		}
	}
}

// BenchmarkFigure8 regenerates the Scenario 2 percentile trajectories
// (Fig 8) over the paper's 10,000-demand range.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := repro.RunSwitchStudy(repro.StudyConfig{
			Scenario:   relmodel.Scenario2(),
			Step:       500,
			MaxDemands: 10000,
			Grid:       benchGrid,
			Seed:       42,
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Trajectory) == 0 {
			b.Fatal("no trajectory")
		}
	}
}

// BenchmarkTable5 regenerates Table 5: the §5.2 study with correlated
// release behaviour, served by the engine on the virtual-clock harness —
// 4 runs × 3 timeouts × 10,000 requests.
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := repro.RunAvailabilityStudy(repro.AvailabilityConfig{
			Correlated: true, Requests: 10000, Seed: 2004})
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 12 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTable6 regenerates Table 6 (independent release behaviour).
func BenchmarkTable6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := repro.RunAvailabilityStudy(repro.AvailabilityConfig{
			Correlated: false, Requests: 10000, Seed: 2004})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range rows {
			r := row.Result
			if r.System.CR <= r.Rel1.CR || r.System.CR <= r.Rel2.CR {
				b.Fatalf("run %d: independence must let the system beat both releases", row.Run)
			}
		}
	}
}

// BenchmarkAblationGridResolution measures the accuracy/cost trade-off of
// the white-box posterior grid: finer grids cost more per posterior; the
// reported 99% percentile of the new release shows the discretization
// drift.
func BenchmarkAblationGridResolution(b *testing.B) {
	counts := bayes.JointCounts{N: 50000, Both: 13, AOnly: 40, BOnly: 31}
	s1 := relmodel.Scenario1()
	for _, grid := range []int{40, 80, 120, 160} {
		b.Run(fmt.Sprintf("grid-%d", grid), func(b *testing.B) {
			w, err := bayes.NewWhiteBox(bayes.WhiteBoxConfig{
				PriorA: s1.PriorA, PriorB: s1.PriorB,
				GridA: grid, GridB: grid, GridC: grid / 4, GridAB: 2 * grid,
			})
			if err != nil {
				b.Fatal(err)
			}
			var p99 float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post, err := w.Posterior(counts)
				if err != nil {
					b.Fatal(err)
				}
				p99 = post.PercentileB(0.99)
			}
			b.ReportMetric(p99*1e3, "TB99-x1e-3")
		})
	}
}

// BenchmarkAblationAdjudicators compares the per-call cost of the
// adjudication strategies on a realistic reply set.
func BenchmarkAblationAdjudicators(b *testing.B) {
	replies := []adjudicate.Reply{
		{Release: "1.0", Body: []byte("<r><x>42</x></r>"), Latency: 120 * time.Millisecond},
		{Release: "1.1", Body: []byte("<r><x>42</x></r>"), Latency: 80 * time.Millisecond},
		{Release: "1.2", Body: []byte("<r><x>41</x></r>"), Latency: 60 * time.Millisecond},
	}
	for _, row := range []struct {
		name string
		adj  adjudicate.Adjudicator
	}{
		{"random-valid", adjudicate.RandomValid{}},
		{"majority", adjudicate.Majority{}},
		{"fastest-valid", adjudicate.FastestValid{}},
	} {
		b.Run(row.name, func(b *testing.B) {
			rng := xrand.New(1)
			for i := 0; i < b.N; i++ {
				if _, err := row.adj.Adjudicate(replies, rng); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// scenarioGrid is the scenario-scale white-box grid internal/loadgen and
// the mediation benchmark (bench/) publish per-demand confidence from.
func scenarioGrid() bayes.WhiteBoxConfig {
	prior := stats.ScaledBeta{Alpha: 1, Beta: 3, Upper: 0.3}
	return bayes.WhiteBoxConfig{PriorA: prior, PriorB: prior, GridA: 40, GridB: 40, GridC: 10, GridAB: 48}
}

// BenchmarkWhiteBoxPosterior measures the §6.2 publication path's
// inference call on the scenario grid (the default-resolution figure is
// internal/bayes's benchmark of the same name). The fixed-count rows
// measure the predecessor-less pass, which sweeps every cell: with no
// evidence, where every cell still carries prior mass and nothing can
// be pruned, and with the paper's mostly-clean campaigns, where the
// posterior has concentrated and most cells are skipped. The advancing
// row is the live shape — each call's record one clean demand past the
// last call's, whose result it hands to PosteriorFrom — so all but the
// first pass evaluate the frontier only. TestAllocationCeilings pins
// every row at the two allocations of the result itself.
func BenchmarkWhiteBoxPosterior(b *testing.B) { runRows(b, whiteBoxPosteriorRows) }

var whiteBoxPosteriorRows = []benchRow{
	posteriorRow("scenario-grid-n0", bayes.JointCounts{}),
	posteriorRow("scenario-grid-n6000", bayes.JointCounts{N: 6000, AOnly: 2, BOnly: 1}),
	posteriorRow("scenario-grid-n1e6", bayes.JointCounts{N: 1000000, Both: 1, AOnly: 5, BOnly: 3}),
	{"scenario-grid-advancing", func(tb testing.TB) func() {
		w := scenarioWhiteBox(tb)
		counts := bayes.JointCounts{N: 6000, AOnly: 2, BOnly: 1}
		post, err := w.Posterior(counts)
		if err != nil {
			tb.Fatal(err)
		}
		return func() {
			counts.N++
			if post, err = w.PosteriorFrom(post, counts); err != nil {
				tb.Fatal(err)
			}
		}
	}},
	publicationChainRow("scenario-grid-chain-from-n1", scenarioGrid()),
	publicationChainRow("upgraded-grid-chain-from-n1", bayes.WhiteBoxConfig{
		PriorA: stats.ScaledBeta{Alpha: 1, Beta: 3, Upper: 0.1}, PriorB: stats.ScaledBeta{Alpha: 1, Beta: 3, Upper: 0.1},
		GridA: 60, GridB: 60, GridC: 16, GridAB: 80,
	}),
}

// publicationChainRow is §6.2 publication from a campaign's first demand
// on: each operation is one more demand, a failure of one release every
// 400th, published as the engine's memo publishes it (ConfidencesFrom,
// its next handed on), so a row's ns/op is the mean over demands 1 to
// b.N. Until an eighth of the grid covers the posterior's mass no
// frontier is kept and every demand pays a full pass: on these grids the
// first thousand demands cost tens to hundreds of times what a demand
// past 5 000 does (ROADMAP item 18). The second grid is cmd/upgraded's.
func publicationChainRow(name string, cfg bayes.WhiteBoxConfig) benchRow {
	return benchRow{name, func(tb testing.TB) func() {
		w, err := bayes.NewWhiteBox(cfg)
		if err != nil {
			tb.Fatal(err)
		}
		var counts bayes.JointCounts
		var prev *bayes.Posterior
		return func() {
			if counts.N++; counts.N%400 == 0 {
				counts.AOnly++
			}
			if _, _, prev, err = w.ConfidencesFrom(prev, counts, 0.001); err != nil {
				tb.Fatal(err)
			}
		}
	}}
}

func scenarioWhiteBox(tb testing.TB) *bayes.WhiteBox {
	w, err := bayes.NewWhiteBox(scenarioGrid())
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// posteriorRow is one predecessor-less posterior of fixed counts.
func posteriorRow(name string, counts bayes.JointCounts) benchRow {
	return benchRow{name, func(tb testing.TB) func() {
		w := scenarioWhiteBox(tb)
		return func() {
			if _, err := w.Posterior(counts); err != nil {
				tb.Fatal(err)
			}
		}
	}}
}

// BenchmarkEngineProxy measures end-to-end middleware request latency
// over two live in-process releases (parallel reliability mode).
func BenchmarkEngineProxy(b *testing.B) {
	oldRel, err := service.New(service.DemoContract("1.0"), service.DemoBehaviours(), service.FaultPlan{})
	if err != nil {
		b.Fatal(err)
	}
	newRel, err := service.New(service.DemoContract("1.1"), service.DemoBehaviours(), service.FaultPlan{})
	if err != nil {
		b.Fatal(err)
	}
	oldTS := httptest.NewServer(oldRel.Handler())
	defer oldTS.Close()
	newTS := httptest.NewServer(newRel.Handler())
	defer newTS.Close()

	engine, err := NewEngine(EngineConfig{
		Releases: []Endpoint{
			{Version: "1.0", URL: oldTS.URL},
			{Version: "1.1", URL: newTS.URL},
		},
		Oracle: oracle.Header{},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer engine.Close()
	proxy := httptest.NewServer(engine.Handler())
	defer proxy.Close()

	client := &soap.Client{URL: proxy.URL, HTTP: &http.Client{Timeout: 5 * time.Second}}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var out service.AddResponse
		if err := client.Call(ctx, "add", service.AddRequest{A: i, B: 1}, &out); err != nil {
			b.Fatal(err)
		}
		if out.Sum != i+1 {
			b.Fatalf("sum = %d", out.Sum)
		}
	}
}

// BenchmarkEngineProxyParallel measures middleware request throughput
// under concurrent consumers — the dispatch hot path must not serialize
// requests on an engine-wide mutex.
func BenchmarkEngineProxyParallel(b *testing.B) {
	oldRel, err := service.New(service.DemoContract("1.0"), service.DemoBehaviours(), service.FaultPlan{})
	if err != nil {
		b.Fatal(err)
	}
	newRel, err := service.New(service.DemoContract("1.1"), service.DemoBehaviours(), service.FaultPlan{})
	if err != nil {
		b.Fatal(err)
	}
	oldTS := httptest.NewServer(oldRel.Handler())
	defer oldTS.Close()
	newTS := httptest.NewServer(newRel.Handler())
	defer newTS.Close()

	engine, err := NewEngine(EngineConfig{
		Releases: []Endpoint{
			{Version: "1.0", URL: oldTS.URL},
			{Version: "1.1", URL: newTS.URL},
		},
		Oracle: oracle.Header{},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer engine.Close()
	proxy := httptest.NewServer(engine.Handler())
	defer proxy.Close()

	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		client := &soap.Client{URL: proxy.URL, HTTP: &http.Client{Timeout: 5 * time.Second}}
		for pb.Next() {
			var out service.AddResponse
			if err := client.Call(ctx, "add", service.AddRequest{A: 2, B: 1}, &out); err != nil {
				b.Fatal(err)
			}
			if out.Sum != 3 {
				b.Fatalf("sum = %d", out.Sum)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// In-process transport benchmarks: the network is replaced entirely by
// an in-memory pipe under the wire transport, so these isolate the
// engine's own per-request overhead (read, sniff, dispatch, adjudicate,
// monitor, re-envelope) from real round-trip cost: the network-free
// baseline ROADMAP tracks.

// benchRow is one sub-benchmark: setup builds and warms what the row
// measures and returns one operation of it. The benchmark times that
// operation; TestAllocationCeilings counts what it allocates.
type benchRow struct {
	name  string
	setup func(tb testing.TB) func()
}

// runRows runs each row as a sub-benchmark of b.
func runRows(b *testing.B, rows []benchRow) {
	for _, r := range rows {
		b.Run(r.name, func(b *testing.B) {
			op := r.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// wireStub answers every release call in process: its dial method hands
// the wire client one end of an in-memory pipe whose other end speaks
// canned HTTP/1.1 keep-alive responses.
type wireStub struct {
	resp []byte // complete response bytes: head + canned SOAP envelope
	// alt, when non-nil, is served in place of resp on every altEvery-th
	// request of a connection: a release that is wrong on a fixed share
	// of demands, or (liveShapeStub) one whose header block never repeats.
	alt      []byte
	altEvery int
}

func newWireStub(tb testing.TB, payload interface{}) *wireStub {
	tb.Helper()
	env, err := soap.Envelope(payload)
	if err != nil {
		tb.Fatal(err)
	}
	return &wireStub{resp: cannedResponse(soap.ContentType, env)}
}

// cannedResponse frames a body as a complete HTTP/1.1 response.
func cannedResponse(contentType string, body []byte) []byte {
	head := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n",
		contentType, len(body))
	return append([]byte(head), body...)
}

// largeReplyBody is the mediation benchmark's observation-large reply
// shape: a sum, then 64 KB of padding. Two of them differ in one early
// digit and are the same length.
func largeReplyBody(sum int) []byte {
	return []byte(fmt.Sprintf("<addResponse><sum>%08d</sum><pad>%s</pad></addResponse>",
		sum, strings.Repeat("aB3x", 16<<10)))
}

// liveShapeStub is a release as a live one looks from a connection: the
// same reply body framed two ways, served alternately, so consecutive
// header blocks on a connection differ — in Content-Length (trailing
// white space after the body) and in a Date line — as they do once two
// consumers share a pool or the clock ticks.
func liveShapeStub(contentType string, body []byte) *wireStub {
	frame := func(date string, body []byte) []byte {
		head := fmt.Sprintf("HTTP/1.1 200 OK\r\nContent-Type: %s\r\nDate: %s\r\nContent-Length: %d\r\n\r\n",
			contentType, date, len(body))
		return append([]byte(head), body...)
	}
	return &wireStub{
		resp:     frame("Sat, 26 Sep 2026 10:00:00 GMT", body),
		alt:      frame("Sat, 26 Sep 2026 10:00:01 GMT", append(append([]byte(nil), body...), '\n')),
		altEvery: 2,
	}
}

func (s *wireStub) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	client, server := net.Pipe()
	go s.serve(server)
	return pipeConn{client}, nil
}

// pipeConn absorbs future-deadline arms: net.Pipe allocates a fresh
// timer per SetDeadline, which would charge the harness — not the
// engine — an allocation per exchange (a real TCP conn arms the runtime
// poller, allocation-free). Past deadlines (the wire client's
// cancellation poison) still propagate.
type pipeConn struct {
	net.Conn
}

func (c pipeConn) SetDeadline(t time.Time) error {
	if !t.IsZero() && time.Until(t) <= 0 {
		return c.Conn.SetDeadline(t)
	}
	return nil
}

// serve answers canned responses on one pipe, allocation-free per
// request so the stub does not pollute the benchmark's allocs/op.
func (s *wireStub) serve(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	for served := 1; ; served++ {
		cl := -1
		for {
			line, err := br.ReadSlice('\n')
			if err != nil {
				return
			}
			if len(line) <= 2 { // blank line: end of head
				break
			}
			if n, ok := sniffContentLength(line); ok {
				cl = n
			}
		}
		if cl > 0 {
			if _, err := br.Discard(cl); err != nil {
				return
			}
		}
		resp := s.resp
		if s.alt != nil && served%s.altEvery == 0 {
			resp = s.alt
		}
		if _, err := c.Write(resp); err != nil {
			return
		}
	}
}

// sniffContentLength matches a "Content-Length: N" header line without
// allocating.
func sniffContentLength(line []byte) (int, bool) {
	const key = "content-length:"
	if len(line) < len(key) {
		return 0, false
	}
	for i := 0; i < len(key); i++ {
		c := line[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != key[i] {
			return 0, false
		}
	}
	n := 0
	seen := false
	for _, c := range line[len(key):] {
		if c == ' ' || c == '\r' || c == '\n' {
			continue
		}
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
		seen = true
	}
	return n, seen
}

// newInProcessEngine builds an engine over n stub releases, starting in
// the given lifecycle phase (the lifecycle guards reject backward
// transitions, so benchmarks start where they measure).
func newInProcessEngine(tb testing.TB, n int, mode Mode, quorum int, phase Phase, opts ...func(*EngineConfig)) *Engine {
	tb.Helper()
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = Endpoint{
			Version: fmt.Sprintf("1.%d", i),
			URL:     fmt.Sprintf("http://release-%d.invalid", i),
		}
	}
	cfg := EngineConfig{
		Releases:     eps,
		Mode:         mode,
		Quorum:       quorum,
		InitialPhase: phase,
		Dial:         newWireStub(tb, service.AddResponse{Sum: 3}).dial,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	engine, err := NewEngine(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = engine.Close() })
	return engine
}

// benchRecorder is a minimal reusable http.ResponseWriter: the header
// map, body buffer and status survive across requests (reset per
// iteration), so the drive loop measures the engine's own per-request
// cost instead of httptest.NewRecorder's fresh maps and the header clone
// its WriteHeader takes. The engine assigns shared header value slices,
// so reusing the map is safe.
type benchRecorder struct {
	header http.Header
	body   bytes.Buffer
	code   int
}

func newBenchRecorder() *benchRecorder { return &benchRecorder{header: make(http.Header)} }

func (r *benchRecorder) Header() http.Header  { return r.header }
func (r *benchRecorder) WriteHeader(code int) { r.code = code }
func (r *benchRecorder) reset()               { r.body.Reset(); r.code = 0 }

// Write sends the implicit 200 first, as net/http's writer does.
func (r *benchRecorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

// resetBody is a reusable request body: a bytes.Reader with a no-op
// Close, rewound per iteration.
type resetBody struct{ bytes.Reader }

func (*resetBody) Close() error { return nil }

// inProcessDriver drives requests straight into a handler with a
// steady-state harness: one pooled request whose body is rewound, one
// reusable recorder.
type inProcessDriver struct {
	req  *http.Request
	body *resetBody
	env  []byte
	rec  *benchRecorder
}

func newInProcessDriver(tb testing.TB, payload interface{}, path string) *inProcessDriver {
	tb.Helper()
	env, err := soap.Envelope(payload)
	if err != nil {
		tb.Fatal(err)
	}
	return newRawInProcessDriver(env, path, soap.ContentType)
}

// newRawInProcessDriver builds a driver from raw request bytes — the
// codec-agnostic core of newInProcessDriver, used directly by the JSON
// gateway benchmarks.
func newRawInProcessDriver(body []byte, path, contentType string) *inProcessDriver {
	d := &inProcessDriver{env: body, body: &resetBody{}, rec: newBenchRecorder()}
	d.req = httptest.NewRequest(http.MethodPost, path, nil)
	d.req.Header.Set("Content-Type", contentType)
	d.req.Body = d.body
	return d
}

// liveContext gives the driver's request what net/http hands a handler:
// a context that can be cancelled (a context.WithCancel child), so the
// per-exchange cancellation hook-up runs as it does on a live demand.
func (d *inProcessDriver) liveContext(tb testing.TB) *inProcessDriver {
	ctx, cancel := context.WithCancel(context.Background())
	tb.Cleanup(cancel)
	d.req = d.req.WithContext(ctx)
	return d
}

func (d *inProcessDriver) do(tb testing.TB, h http.Handler) {
	d.body.Reset(d.env)
	d.rec.reset()
	h.ServeHTTP(d.rec, d.req)
	if d.rec.code != http.StatusOK {
		tb.Fatalf("HTTP %d: %s", d.rec.code, d.rec.body.String())
	}
}

// steady measures steady state: the warm-up fills the reply, context,
// fan-out and verdict pools and gives each release its monitor
// accumulator, and the operation left is one more demand.
func steady(tb testing.TB, h http.Handler, d *inProcessDriver) func() {
	tb.Helper()
	for i := 0; i < 64; i++ {
		d.do(tb, h)
	}
	return func() { d.do(tb, h) }
}

// addDemand is steady state for SOAP add demands into h at path.
func addDemand(tb testing.TB, h http.Handler, path string) func() {
	tb.Helper()
	return steady(tb, h, newInProcessDriver(tb, service.AddRequest{A: 2, B: 1}, path))
}

// phaseRow drives add demands into an engine over two stub releases.
func phaseRow(name string, phase Phase, opts ...func(*EngineConfig)) benchRow {
	return benchRow{name, func(tb testing.TB) func() {
		return addDemand(tb, newInProcessEngine(tb, 2, ModeReliability, 0, phase, opts...), "/")
	}}
}

// BenchmarkEngineInProcess measures pure engine overhead per demand over
// two stub releases.
func BenchmarkEngineInProcess(b *testing.B) { runRows(b, engineInProcessRows) }

var engineInProcessRows = []benchRow{
	// The parallel fan-out versus the single-target fast path of the
	// old-only/new-only phases.
	phaseRow("parallel", PhaseParallel),
	phaseRow("observation", PhaseObservation),
	phaseRow("old-only-fastpath", PhaseOldOnly),
	phaseRow("new-only-fastpath", PhaseNewOnly),

	// §6.2 publication: the observation phase with a confidence header
	// on every response, so each demand makes a joint record and then
	// computes the served confidence at the moved counts (the memo has
	// nothing at those counts). Publication adds no allocation to
	// observation: the two confidences are accumulated in the model's
	// pooled scratch and the header is rendered into a pooled buffer; a
	// posterior is made only when a full pass leaves a new frontier,
	// too rarely to show in a row. The first row starts at N = 0, where
	// every cell still carries mass and no frontier is kept; the warm
	// row starts where the mediation benchmark's publish-small workload
	// measures, past a 6 000-demand warm-up, where all but a few demands
	// advance from the operation's last frontier.
	phaseRow("observation-publish", PhaseObservation, publish),
	{"observation-publish-warm", func(tb testing.TB) func() {
		e := newInProcessEngine(tb, 2, ModeReliability, 0, PhaseObservation, publish)
		for i := 0; i < 6000; i++ {
			e.Monitor().Note(monitor.Record{Operation: "add", Joint: bayes.NeitherFails})
		}
		return addDemand(tb, e, "/")
	}},

	// The mediation benchmark's observation-large workload without the
	// sockets: 64 KB replies, the new release wrong on every 20th
	// demand (one early digit, same length), the old release the
	// reference. Every byte-proportional step of a demand is in here —
	// sized reads into class buffers, the early-exit comparison on the
	// 5 %, the delivered reply, already the canonical envelope, handed
	// over in one Write as it arrived (soap.Framed) — and the ceiling
	// pins that none of them allocates per byte again.
	phaseRow("observation-large", PhaseObservation, func(cfg *EngineConfig) { observeLarge(cfg, "release-1.") }),

	// The REST/JSON gateway over the same dispatch core: canned
	// {"sum":3} replies over the wire transport, demands routed by URL
	// path. The protocol seam must not cost the hot path anything — 0
	// allocs/op, same as the SOAP fast path.
	{"json-fastpath", func(tb testing.TB) func() {
		engine := newInProcessEngine(tb, 2, ModeReliability, 0, PhaseOldOnly, func(cfg *EngineConfig) {
			cfg.Codec = jsoncodec.Default
			cfg.Dial = (&wireStub{resp: cannedResponse("application/json", []byte(`{"sum":3}`))}).dial
		})
		return steady(tb, engine, newRawInProcessDriver([]byte(`{"a":2,"b":1}`), "/add", "application/json"))
	}},

	// The live shape of a release call, which the rows above never
	// take: consecutive replies on a connection carry different header
	// blocks (liveShapeStub), and the demand's context can be cancelled,
	// as net/http's always can. Whatever a release call does per reply
	// header or per cancellable exchange shows here. The demand ends
	// inside dispatch's watch tick, so it never watches its consumer and
	// the row pins 0: a demand that does not outlive the tick allocates
	// nothing to follow its consumer.
	liveShapeRow("live-shape-oldonly", PhaseOldOnly),
	liveShapeRow("live-shape-parallel", PhaseParallel),

	// The durable-campaign contract says journaling stays off the
	// dispatch hot path: the writer only sees transitions, release
	// changes and periodic snapshots, never per-request outcomes. This
	// row drives the old-only fast path with a live journal attached
	// and a snapshot loop armed, held at exactly 0 allocs/op, so any
	// journal code leaking into dispatch fails. The snapshot interval
	// is a realistic 1s — far longer than a measurement, so the loop
	// stays parked and the row isolates the attachment cost itself.
	{"old-only-fastpath-journaled", func(tb testing.TB) func() {
		engine := newInProcessEngine(tb, 2, ModeReliability, 0, PhaseOldOnly)
		w, _, err := journal.Open(filepath.Join(tb.TempDir(), "bench.journal"))
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = w.Close() })
		engine.AttachJournal(w)
		stop, err := engine.StartCampaignSnapshots(w, time.Second)
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(stop)
		return addDemand(tb, engine, "/")
	}},

	// The same fast path recording every demand to a Store that takes
	// 1 ms per write, far slower than demands arrive. The lines leave
	// the demand's path through a bounded queue, so a demand costs one
	// marshal and enqueue more, and the lines the Store cannot keep up
	// with are dropped (drops/op), not waited for. No allocation
	// ceiling: the writer goroutine's allocations land at random in
	// AllocsPerRun's count.
	{"old-only-slow-store", func(tb testing.TB) func() {
		store := &slowStore{}
		engine := newInProcessEngine(tb, 2, ModeReliability, 0, PhaseOldOnly, func(cfg *EngineConfig) { cfg.Store = store })
		tb.Cleanup(func() {
			_ = engine.Close() // writes what is queued; its error names the drops
			st, err := engine.Stats("1.0")
			if b, ok := tb.(*testing.B); ok && err == nil {
				b.ReportMetric(float64(st.Demands-store.lines)/float64(b.N), "drops/op")
			}
		})
		return addDemand(tb, engine, "/")
	}},
}

// observeLarge makes cfg the mediation benchmark's observation-large
// unit: the observation phase over 64 KB replies, the old release the
// reference, and the new one, whose address holds newAddr, wrong on
// every 20th demand (one early digit, same length).
func observeLarge(cfg *EngineConfig, newAddr string) {
	right := &wireStub{resp: cannedResponse(soap.ContentType, soap.EnvelopeRaw(largeReplyBody(3)))}
	faulty := &wireStub{resp: right.resp, alt: cannedResponse(soap.ContentType, soap.EnvelopeRaw(largeReplyBody(4))), altEvery: 20}
	cfg.InitialPhase = PhaseObservation
	cfg.Oracle = oracle.Reference{Release: "1.0"}
	cfg.Dial = func(ctx context.Context, network, addr string) (net.Conn, error) {
		if strings.Contains(addr, newAddr) {
			return faulty.dial(ctx, network, addr)
		}
		return right.dial(ctx, network, addr)
	}
}

// slowStore is a Store that takes 1 ms per write and counts its lines.
type slowStore struct{ lines int }

func (s *slowStore) Write(p []byte) (int, error) {
	time.Sleep(time.Millisecond)
	s.lines++
	return len(p), nil
}

// publish turns on §6.2 confidence publication on the scenario grid.
func publish(cfg *EngineConfig) {
	grid := scenarioGrid()
	cfg.Inference = &grid
	cfg.PublishHeader = true
}

func liveShapeRow(name string, phase Phase) benchRow {
	return benchRow{name, func(tb testing.TB) func() {
		env, err := soap.Envelope(service.AddResponse{Sum: 3})
		if err != nil {
			tb.Fatal(err)
		}
		engine := newInProcessEngine(tb, 2, ModeReliability, 0, phase, func(cfg *EngineConfig) {
			cfg.Dial = liveShapeStub(soap.ContentType, env).dial
		})
		return steady(tb, engine, newInProcessDriver(tb, service.AddRequest{A: 2, B: 1}, "/").liveContext(tb))
	}}
}

// BenchmarkEngineInProcessModes measures all four §4.2 operating modes at
// 3- and 5-version redundancy — the N-version fan-out multiplies
// per-request transport cost by the number of deployed releases, so
// engine overhead must stay flat per release.
func BenchmarkEngineInProcessModes(b *testing.B) {
	var rows []benchRow
	for _, n := range []int{3, 5} {
		for _, mc := range []struct {
			name   string
			mode   Mode
			quorum int
		}{
			{"reliability", ModeReliability, 0},
			{"responsiveness", ModeResponsiveness, 0},
			{"dynamic-q2", ModeDynamic, 2},
			{"sequential", ModeSequential, 0},
		} {
			rows = append(rows, benchRow{fmt.Sprintf("%s-%dv", mc.name, n), func(tb testing.TB) func() {
				return addDemand(tb, newInProcessEngine(tb, n, mc.mode, mc.quorum, PhaseParallel), "/")
			}})
		}
	}
	runRows(b, rows)
}

// BenchmarkFleetInProcess measures the fleet router's overhead over a
// direct engine dispatch: the same stub-transport engine is driven
// straight (the ROADMAP baseline) and through a two-unit fleet's path
// router. The delta between the two sub-benchmarks is the cost of
// hosting N units behind one listener — budgeted at ≤ 1 µs/op and
// ≤ 5 allocs/op.
func BenchmarkFleetInProcess(b *testing.B) { runRows(b, fleetInProcessRows) }

var fleetInProcessRows = []benchRow{
	{"direct", func(tb testing.TB) func() {
		engine, err := NewEngine(fleetUnit(tb, "solo"))
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { _ = engine.Close() })
		return addDemand(tb, engine, "/")
	}},
	{"fleet-routed", func(tb testing.TB) func() {
		return addDemand(tb, newBenchFleet(tb, func(prefix string) EngineConfig { return fleetUnit(tb, prefix) }), "/flights/")
	}},
	// A JSON unit's demands are routed by operation path, so every one
	// of them reaches the fleet on a non-"/" remainder.
	{"fleet-routed-json", func(tb testing.TB) func() {
		fl := newBenchFleet(tb, func(prefix string) EngineConfig {
			cfg := fleetUnit(tb, prefix)
			cfg.Codec = jsoncodec.Default
			cfg.Dial = liveShapeStub("application/json", []byte(`{"sum":3}`)).dial
			return cfg
		})
		return steady(tb, fl, newRawInProcessDriver([]byte(`{"a":2,"b":1}`), "/flights/add", "application/json"))
	}},
	// A demand on a connection the fleet took over from net/http (a
	// real http.Server does the first request and the hijack in setup):
	// the operation is one demand's bytes written and its response's
	// bytes read by a raw client over an in-memory connection.
	{"fleet-taken-over", func(tb testing.TB) func() {
		return takenOverDemand(tb, newBenchFleet(tb, func(prefix string) EngineConfig { return fleetUnit(tb, prefix) }))
	}},
	// EngineInProcess/observation-large on a taken-over connection:
	// 64 KB replies, the new release wrong on every 20th demand, the old
	// one the reference and delivered as it arrived. The length the
	// codec declares reaches the connection's writer without a header
	// value, so the row holds what net/http's recorder cannot: 0.
	{"fleet-taken-over-large", func(tb testing.TB) func() {
		return takenOverDemand(tb, newBenchFleet(tb, func(prefix string) EngineConfig {
			cfg := fleetUnit(tb, prefix)
			observeLarge(&cfg, "-new.")
			return cfg
		}))
	}},
}

// takenOverDemand is steady state for SOAP add demands to fl's flights
// unit on a connection fl took over: the operation writes one demand's
// bytes and reads its response's.
func takenOverDemand(tb testing.TB, fl *Fleet) func() {
	conn := serveInMemory(tb, fl)
	env, err := soap.Envelope(service.AddRequest{A: 2, B: 1})
	if err != nil {
		tb.Fatal(err)
	}
	req := fmt.Appendf(nil, "POST /flights/ HTTP/1.1\r\nHost: bench\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s",
		soap.ContentType, len(env), env)
	buf := make([]byte, 128<<10)
	do := func() {
		if _, err := conn.Write(req); err != nil {
			tb.Fatal(err)
		}
		if resp := readRawResponse(tb, conn, buf); !bytes.HasPrefix(resp, []byte("HTTP/1.1 200 ")) {
			tb.Fatalf("response %.200q", resp)
		}
	}
	for i := 0; i < 64; i++ {
		do()
	}
	return do
}

// serveInMemory serves h from a real http.Server over in-memory
// connections and returns the client end of one.
func serveInMemory(tb testing.TB, h http.Handler) net.Conn {
	return servePipes(tb, h)()
}

// servePipes serves h from a real http.Server and returns a dialer of
// in-memory connections to it; every connection it dialled is closed
// after the test.
func servePipes(tb testing.TB, h http.Handler) func() net.Conn {
	ln := &pipeListener{conns: make(chan net.Conn, 1), done: make(chan struct{})}
	srv := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	var clients []net.Conn
	tb.Cleanup(func() {
		_ = srv.Close()
		<-served
		for _, c := range clients {
			_ = c.Close()
		}
	})
	return func() net.Conn {
		client, server := net.Pipe()
		ln.conns <- servedPipe{pipeConn{server}, &net.TCPAddr{}}
		clients = append(clients, client)
		return client
	}
}

// servedPipe is the server's end of an in-memory connection. Like an
// accepted TCP connection it has a local address of its own, which is
// how the fleet tells one connection's first demand from another's.
type servedPipe struct {
	pipeConn
	addr *net.TCPAddr
}

func (c servedPipe) LocalAddr() net.Addr { return c.addr }

// BenchmarkFleetFreshConnection measures a consumer that opens a new
// keep-alive connection for each demand and closes it after the reply:
// the case where taking a connection over (hijack, read buffer, context,
// header map) is paid on every demand and saves nothing. Each row's
// operation is one in-memory dial, one demand's bytes written, its
// response read and the connection closed, against a fleet that is its
// server's whole Handler (taken over) or that a pass-through handler
// wraps (net/http serves it), at the benchmark's 0.3 KB reply and at
// observation-large's 64 KB one.
func BenchmarkFleetFreshConnection(b *testing.B) { runRows(b, fleetFreshConnectionRows) }

var fleetFreshConnectionRows = []benchRow{
	freshConnectionRow("taken-over", false, nil),
	freshConnectionRow("wrapped", true, nil),
	freshConnectionRow("taken-over-64KB", false, largeReplyBody(3)),
	freshConnectionRow("wrapped-64KB", true, largeReplyBody(3)),
}

func freshConnectionRow(name string, wrapped bool, reply []byte) benchRow {
	return benchRow{name, func(tb testing.TB) func() {
		var h http.Handler = newBenchFleet(tb, func(prefix string) EngineConfig {
			cfg := fleetUnit(tb, prefix)
			if reply != nil {
				cfg.Dial = (&wireStub{resp: cannedResponse(soap.ContentType, soap.EnvelopeRaw(reply))}).dial
			}
			return cfg
		})
		if wrapped {
			h = http.HandlerFunc(h.ServeHTTP)
		}
		dial := servePipes(tb, h)
		env, err := soap.Envelope(service.AddRequest{A: 2, B: 1})
		if err != nil {
			tb.Fatal(err)
		}
		req := fmt.Appendf(nil, "POST /flights/ HTTP/1.1\r\nHost: bench\r\nContent-Type: %s\r\nContent-Length: %d\r\n\r\n%s",
			soap.ContentType, len(env), env)
		buf := make([]byte, 128<<10)
		return func() {
			conn := dial()
			if _, err := conn.Write(req); err != nil {
				tb.Fatal(err)
			}
			if resp := readRawResponse(tb, conn, buf); !bytes.HasPrefix(resp, []byte("HTTP/1.1 200 ")) {
				tb.Fatalf("response %q", resp)
			}
			_ = conn.Close()
		}
	}}
}

// pipeListener hands an http.Server the connections put on conns.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// readRawResponse reads one Content-Length-framed response from c into
// buf, allocation-free, and returns it.
func readRawResponse(tb testing.TB, c net.Conn, buf []byte) []byte {
	n, head := 0, -1
	for head < 0 || n < head {
		m, err := c.Read(buf[n:])
		if err != nil {
			tb.Fatal(err)
		}
		n += m
		if head < 0 {
			if i := bytes.Index(buf[:n], []byte("\r\n\r\n")); i >= 0 {
				cl := -1
				for rest := buf[:i]; len(rest) > 0; {
					line := rest
					if j := bytes.Index(rest, []byte("\r\n")); j >= 0 {
						line, rest = rest[:j], rest[j+2:]
					} else {
						rest = nil
					}
					if v, ok := sniffContentLength(line); ok {
						cl = v
					}
				}
				if cl < 0 {
					tb.Fatalf("no Content-Length in %q", buf[:i])
				}
				head = i + 4 + cl
			}
		}
	}
	return buf[:n]
}

// fleetUnit is one old-only unit over two stub releases.
func fleetUnit(tb testing.TB, prefix string) EngineConfig {
	return EngineConfig{
		Releases: []Endpoint{
			{Version: "1.0", URL: "http://" + prefix + "-old.invalid"},
			{Version: "1.1", URL: "http://" + prefix + "-new.invalid"},
		},
		InitialPhase: PhaseOldOnly,
		Dial:         newWireStub(tb, service.AddResponse{Sum: 3}).dial,
	}
}

// newBenchFleet hosts two units, flights and hotels, behind one router.
func newBenchFleet(tb testing.TB, unit func(prefix string) EngineConfig) *Fleet {
	fl, err := NewFleet(FleetConfig{Units: []FleetUnit{
		{Name: "flights", Engine: unit("flights")},
		{Name: "hotels", Engine: unit("hotels")},
	}})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = fl.Close() })
	return fl
}

// BenchmarkJSONDecodeReply measures the JSON gateway's check of a
// release's 200 — every reply of a JSON unit passes it — on the
// mediation benchmark's 0.4 KB reply shape and on a 64 KB one, both
// mostly one long string. Both rows are held at 0 allocs/op.
func BenchmarkJSONDecodeReply(b *testing.B) { runRows(b, jsonDecodeReplyRows) }

var jsonDecodeReplyRows = []benchRow{decodeReplyRow("0.4KB", 360), decodeReplyRow("64KB", 64<<10)}

func decodeReplyRow(name string, pad int) benchRow {
	return benchRow{name, func(tb testing.TB) func() {
		body := fmt.Appendf(nil, `{"id":1234,"sum":"01234567","pad":"%s"}`, strings.Repeat("aB3x", pad/4))
		return func() {
			if _, _, err := (jsoncodec.Codec{}).DecodeReply(http.StatusOK, body); err != nil {
				tb.Fatal(err)
			}
		}
	}}
}

// BenchmarkJSONEqual measures the JSON codec's comparison of two 64 KB
// replies that are not byte-identical: the same object with white
// space between its tokens, the same object with its keys in another
// order, and an object whose first field differs. Each decodes both
// payloads into encoding/json values, however early they part; the
// ceilings in allocs_test.go pin what each row allocates today.
func BenchmarkJSONEqual(b *testing.B) { runRows(b, jsonEqualRows) }

var jsonEqualRows = []benchRow{
	jsonEqualRow("64KB-whitespace", `{"id":1234,"sum":"01234567","pad":"%s"}`, `{ "id": 1234, "sum": "01234567", "pad": "%s" }`, true),
	jsonEqualRow("64KB-reordered", `{"id":1234,"sum":"01234567","pad":"%s"}`, `{"pad":"%s","sum":"01234567","id":1234}`, true),
	jsonEqualRow("64KB-early-differ", `{"id":1234,"sum":"01234567","pad":"%s"}`, `{"id":1235,"sum":"01234567","pad":"%s"}`, false),
}

func jsonEqualRow(name, x, y string, equal bool) benchRow {
	return benchRow{name, func(tb testing.TB) func() {
		pad := strings.Repeat("aB3x", 16<<10)
		a, b := fmt.Appendf(nil, x, pad), fmt.Appendf(nil, y, pad)
		return func() {
			if (jsoncodec.Codec{}).Equal(a, b) != equal {
				tb.Fatalf("Equal = %v, want %v", !equal, equal)
			}
		}
	}}
}

// benchNoteRecord builds the canonical two-release record Note
// benchmarks drive, noted once so that each release has its accumulator.
// interned selects whether the observations carry the monitor's
// pre-interned dense indices — the dispatch hot path's shape — or plain
// names resolved per observation.
func benchNoteRecord(m *monitor.Monitor, interned bool) monitor.Record {
	rec := monitor.Record{
		Operation: "add",
		Winner:    "1.1",
		Joint:     bayes.NeitherFails,
		Releases: []monitor.Observation{
			{Release: "1.0", Responded: true, Judged: true, Latency: 3 * time.Millisecond},
			{Release: "1.1", Responded: true, Judged: true, Latency: 2 * time.Millisecond},
		},
	}
	if interned {
		for i := range rec.Releases {
			rec.Releases[i].ID = m.Intern(rec.Releases[i].Release)
		}
	}
	m.Note(rec)
	return rec
}

// BenchmarkMonitorNoteParallel is every P calling Note back to back on
// one monitor: ~10⁷ Notes/s through the monitor's one lock, two to three
// orders of magnitude past what a process that also mediates each demand
// (≥ 60 µs of it) can produce. Ungated; it is the worst case the
// decision record DECISIONS.md, "the monitor holds one lock", quotes.
func BenchmarkMonitorNoteParallel(b *testing.B) {
	m := monitor.New()
	rec := benchNoteRecord(m, true)
	before := m.Joint().N
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			m.Note(rec)
		}
	})
	if got := m.Joint().N - before; got != b.N {
		b.Fatalf("joint N grew %d, want %d", got, b.N)
	}
}

// BenchmarkMonitorNote measures the single-threaded write path cost in
// steady state: interned is the dispatch hot path's shape (observations
// carry dense release indices), by-name resolves each observation
// through the name map.
func BenchmarkMonitorNote(b *testing.B) { runRows(b, monitorNoteRows) }

var monitorNoteRows = []benchRow{noteRow("interned", true), noteRow("by-name", false)}

func noteRow(name string, interned bool) benchRow {
	return benchRow{name, func(testing.TB) func() {
		m := monitor.New()
		rec := benchNoteRecord(m, interned)
		return func() { m.Note(rec) }
	}}
}

// BenchmarkOracleJudge measures the per-demand judge cost of every
// oracle over a three-release reply set (agreeing releases — the steady
// state) through the caller-buffer JudgeInto API, and the comparison of
// two replies that are not byte-identical. Two 64 KB replies that differ
// in one early digit cost the first chunk of canonical form, which
// holds it. A difference in the last kilobyte, and a difference in
// formatting only, cost the whole of both documents: a 64 KB reply
// reindented, under another prefix and with its attributes reordered,
// and a 50 KB one of 1 500 elements with attributes, whose cost is per
// tag. All of these are held at zero steady-state allocations. The last
// row is the early difference under a name past ASCII, which the
// canonical scanner declines: both documents go through Canonicalize
// whole, however early they part, and its ceiling pins what that
// allocates.
func BenchmarkOracleJudge(b *testing.B) { runRows(b, oracleJudgeRows) }

var oracleJudgeRows = []benchRow{
	judgeRow("fault-only", oracle.FaultOnly{}),
	judgeRow("header-truth", oracle.Header{}),
	judgeRow("reference(1.0)", oracle.Reference{Release: "1.0"}),
	judgeRow("back-to-back", oracle.BackToBack{}),
	backToBackRow("back-to-back-64k-differ", largeReplyBody(3), largeReplyBody(4), true),
	backToBackRow("back-to-back-64k-late-differ", lateDigitBody(3), lateDigitBody(4), true),
	backToBackRow("back-to-back-64k-reformatted", prefixedBody("p", 0, ""), prefixedBody("q", 1, "\n  "), false),
	backToBackRow("back-to-back-1500-elements-reformatted", itemsBody("p", 0, ""), itemsBody("q", 1, "\n  "), false),
	backToBackRow("back-to-back-64k-declined-differ", nonASCIIName(largeReplyBody(3)), nonASCIIName(largeReplyBody(4)), true),
}

// backToBackRow judges two releases' replies x and y back to back; both
// verdicts must be failed.
func backToBackRow(name string, x, y []byte, failed bool) benchRow {
	return benchRow{name, func(tb testing.TB) func() {
		return judge(tb, oracle.BackToBack{}, []adjudicate.Reply{
			{Release: "1.0", Body: x, Latency: 3 * time.Millisecond},
			{Release: "1.1", Body: y, Latency: 2 * time.Millisecond},
		}, failed)
	}}
}

// lateDigitBody is largeReplyBody with the sum after the padding: two
// of them differ in their last kilobyte.
func lateDigitBody(sum int) []byte {
	return fmt.Appendf(nil, "<addResponse><pad>%s</pad><sum>%08d</sum></addResponse>", strings.Repeat("aB3x", 16<<10), sum)
}

// nonASCIIName is a reply with its root element renamed past ASCII.
func nonASCIIName(body []byte) []byte {
	return bytes.ReplaceAll(body, []byte("addResponse"), []byte("addRésponse"))
}

// prefixedBody is largeReplyBody in a namespace, under prefix, with two
// attributes in the order order picks and indent before each child.
func prefixedBody(prefix string, order int, indent string) []byte {
	attrs := [2]string{` id="17"`, ` version="1.1"`}
	return fmt.Appendf(nil, `<%[1]s:addResponse xmlns:%[1]s="urn:add"%[2]s%[3]s>%[4]s<%[1]s:sum>00000003</%[1]s:sum>%[4]s<%[1]s:pad>%[5]s</%[1]s:pad>%[6]s</%[1]s:addResponse>`,
		prefix, attrs[order], attrs[1-order], indent, strings.Repeat("aB3x", 16<<10), strings.TrimSuffix(indent, "  "))
}

// itemsBody is a 50 KB reply of 1 500 elements, each with two
// attributes, formatted as prefixedBody formats its document.
func itemsBody(prefix string, order int, indent string) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `<%[1]s:items xmlns:%[1]s="urn:items">`, prefix)
	for i := 0; i < 1500; i++ {
		attrs := [2]string{fmt.Sprintf(` id="%d"`, i), fmt.Sprintf(` code="c%03d"`, i%1000)}
		fmt.Fprintf(&b, `%s<%s:item%s%s>v%d</%[2]s:item>`, indent, prefix, attrs[order], attrs[1-order], i)
	}
	fmt.Fprintf(&b, `%s</%s:items>`, strings.TrimSuffix(indent, "  "), prefix)
	return []byte(b.String())
}

func agreeingReplies() []adjudicate.Reply {
	hdr := httpx.Header(oracle.InjectionHeader + ": CR\n")
	return []adjudicate.Reply{
		{Release: "1.0", Body: []byte("<addResponse><sum>3</sum></addResponse>"), Header: hdr, Latency: 3 * time.Millisecond},
		{Release: "1.1", Body: []byte("<addResponse><sum>3</sum></addResponse>"), Header: hdr, Latency: 2 * time.Millisecond},
		{Release: "1.2", Body: []byte("<addResponse><sum>3</sum></addResponse>"), Header: hdr, Latency: 4 * time.Millisecond},
	}
}

func judgeRow(name string, o oracle.Oracle) benchRow {
	return benchRow{name, func(tb testing.TB) func() { return judge(tb, o, agreeingReplies(), false) }}
}

// judge is one JudgeInto of replies into a reused verdict buffer, every
// verdict of which must be want.
func judge(tb testing.TB, o oracle.Oracle, replies []adjudicate.Reply, want bool) func() {
	buf := make([]bool, 0, len(replies))
	return func() {
		for _, failed := range o.JudgeInto(buf, "add", replies) {
			if failed != want {
				tb.Fatalf("%T judged a reply failed=%v, want %v", o, failed, want)
			}
		}
	}
}

// BenchmarkSOAPEnvelopeRaw measures envelope construction, which runs at
// least twice per proxied request (request re-wrap and response write).
func BenchmarkSOAPEnvelopeRaw(b *testing.B) {
	body := []byte(`<addResponse><sum>42</sum></addResponse>`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if env := soap.EnvelopeRaw(body); len(env) == 0 {
			b.Fatal("empty envelope")
		}
	}
}

// BenchmarkBlackBoxPosterior measures the single-release inference used
// for prior calibration.
func BenchmarkBlackBoxPosterior(b *testing.B) {
	bb, err := bayes.NewBlackBox(stats.ScaledBeta{Alpha: 20, Beta: 20, Upper: 0.002}, 400)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bb.Posterior(50000, 50); err != nil {
			b.Fatal(err)
		}
	}
}
