package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSON holds BENCHMARK.json and the program's own tables
// together: the same workloads, metrics, units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", doc.Paths)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: listed %q, defined %q", i, doc.Workloads[i].Name, w.name)
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics listed, %d defined", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := doc.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: listed %+v, defined %+v", i, got, m)
		}
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, %d defined", len(doc.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := doc.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: listed %+v, defined %+v", i, got, m)
		}
	}
}

// TestSmoke runs every workload, traced, for a fraction of a second per
// phase: every metric present and finite, every gate of a full run
// passed except the two a short run cannot meet, and what the workloads
// are built to show, shown.
func TestSmoke(t *testing.T) {
	layer := map[string]map[string]float64{}
	for _, w := range workloads {
		o := defaultOptions(w, 7, 0, true)
		o.measure = 1600 * time.Millisecond
		o.blockLen = 50 * time.Millisecond
		o.warmup = 200 * time.Millisecond
		o.warmDemands = 100
		o.setups = 2
		o.minPairs = 2
		o.steady = false
		o.probeCalls = 100
		o.traceFile = t.TempDir() + "/trace.jsonl"
		o.log = io.Discard
		res, err := runWorkload(o)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		for _, v := range res.violations {
			t.Errorf("%s: %s", w.name, v)
		}
		if res.attempted < 1 || res.failed != 0 {
			t.Errorf("%s: attempted %d, failed %d", w.name, res.attempted, res.failed)
		}
		for _, table := range []struct {
			metrics []metric
			values  map[string]float64
		}{{endToEnd, res.endToEnd}, {perLayer, res.perLayer}} {
			for _, m := range table.metrics {
				v, ok := table.values[m.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: %s = %v (present: %v)", w.name, m.name, v, ok)
				}
			}
		}
		l := res.perLayer
		layer[w.name] = l
		if l["client.wrong_delivered"] != 0 || l["client.failed"] != 0 {
			t.Errorf("%s: %v wrong replies delivered, %v demands failed", w.name, l["client.wrong_delivered"], l["client.failed"])
		}
		if l["monitor.recorded_share"] != 1 {
			t.Errorf("%s: monitor recorded %v of the calls", w.name, l["monitor.recorded_share"])
		}
		if l["release.calls_per_demand"] != float64(w.releaseCalls) {
			t.Errorf("%s: %v release calls per demand, want %d", w.name, l["release.calls_per_demand"], w.releaseCalls)
		}
		if (l["release.faults_injected"] > 0) != (w.wrongShare > 0) {
			t.Errorf("%s: %v wrong replies served", w.name, l["release.faults_injected"])
		}
		if (l["adjudicate.adjudicate_mean_us"] > 0) != (w.name == "parallel-json") {
			t.Errorf("%s: adjudicate.adjudicate_mean_us = %v", w.name, l["adjudicate.adjudicate_mean_us"])
		}
		spans, err := os.ReadFile(o.traceFile)
		if err != nil || bytes.Count(spans, []byte("\n")) < 10 {
			t.Errorf("%s: trace file: %v, %d bytes", w.name, err, len(spans))
		}

		// The report is what the driver parses: exactly four keys, and the
		// table's metrics with their units.
		var line bytes.Buffer
		if err := writeReport(&line, &o, res); err != nil {
			t.Fatal(err)
		}
		lines := bytes.Split(bytes.TrimSpace(line.Bytes()), []byte("\n"))
		var rep map[string]json.RawMessage
		if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
			t.Fatal(err)
		}
		if len(rep) != 4 || rep["correct"] == nil || rep["attempted"] == nil || rep["failed"] == nil || rep["metrics"] == nil {
			t.Errorf("%s: report keys: %s", w.name, lines[len(lines)-1])
		}
		if !bytes.HasSuffix(lines[0], []byte(`"claim":null}`)) {
			t.Errorf("%s: the summary does not end with a null claim: %s", w.name, lines[0])
		}
	}
	if small, large := layer["oldonly-small"]["protocol.bytes_per_demand"], layer["observation-large"]["protocol.bytes_per_demand"]; large < 100*small {
		t.Errorf("protocol bytes per demand: %v large, %v small", large, small)
	}
}

func TestMedianOfPairs(t *testing.T) {
	mk := func(mediated, direct int) pair {
		return pair{
			mediated: block{tally: tally{demands: mediated}, wall: time.Second},
			direct:   block{tally: tally{demands: direct}, wall: time.Second},
		}
	}
	// Ratios 0.5, 0.1, 0.4: one disturbed pair does not move the median.
	pairs := []pair{mk(50, 100), mk(10, 100), mk(40, 100)}
	got := medianOfPairs(pairs, func(m, d *block) float64 { return m.perSecond() / d.perSecond() })
	if got != 0.4 {
		t.Errorf("median of pair ratios = %v, want 0.4", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := quantile([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.5); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", got)
	}
	if got := quantile([]int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.99); got != 10 {
		t.Errorf("p99 of 1..10 = %v, want 10", got)
	}
}

func TestWindows(t *testing.T) {
	// 10000 interleaved demands make two p99 windows of 5000; in each the
	// mediated side is three times the direct one.
	s := &serial{}
	for i := 0; i < 10000; i++ {
		d := int64(10 + i%7)
		s.mediated = append(s.mediated, 3*d)
		s.direct = append(s.direct, d)
	}
	ws := s.windows(p99WindowSamples)
	if len(ws) != 2 || len(ws[0].mediated) != 5000 || len(ws[1].direct) != 5000 {
		t.Fatalf("%d windows of %d and %d", len(ws), len(ws[0].mediated), len(ws[1].direct))
	}
	if got := quantileRatio(ws, 0.5); got != 3 {
		t.Errorf("p50 ratio = %v, want 3", got)
	}
	if got := quantileRatio(ws, 0.99); got != 3 {
		t.Errorf("p99 ratio = %v, want 3", got)
	}
	if n := len((&serial{mediated: make([]int64, 100000), direct: make([]int64, 100000)}).windows(p99WindowSamples)); n != maxWindows {
		t.Errorf("%d windows of a long phase, want %d", n, maxWindows)
	}
	if n := len((&serial{mediated: make([]int64, 300), direct: make([]int64, 300)}).windows(p50WindowSamples)); n != 1 {
		t.Errorf("%d windows of a short phase, want 1", n)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}

func TestSelfTime(t *testing.T) {
	sp := func(kind, lane int, start, end int64) span {
		return span{kind: uint8(kind), lane: int8(lane), start: start, end: end}
	}
	var a attribution

	// Properly nested: self time is duration minus children.
	nested := []span{
		sp(spanClientDemand, noLane, 0, 100),
		sp(spanFleetHandler, noLane, 10, 90),
		sp(spanDecodeRequest, noLane, 12, 15),
		sp(spanWireCall, 0, 20, 70),
		sp(spanReleaseHandler, 0, 40, 50),
		sp(spanWriteBody, noLane, 80, 85),
	}
	want := []int64{20, 80 - 3 - 50 - 5, 3, 40, 10, 5}
	if got := a.attribute(nested); !equalInt64(got, want) {
		t.Errorf("nested self times = %v, want %v", got, want)
	}
	for i, wantParent := range []int{-1, 0, 1, 1, 3, 1} {
		if got := parentOf(nested, i); got != wantParent {
			t.Errorf("parent of %s = %d, want %d", spanNames[nested[i].kind], got, wantParent)
		}
	}

	// Fan-out: two overlapping calls. The overlap is charged once, and
	// the shares still add up to the root's duration.
	fanout := []span{
		sp(spanClientDemand, noLane, 0, 100),
		sp(spanFleetHandler, noLane, 10, 90),
		sp(spanWireCall, 0, 20, 60),
		sp(spanWireCall, 1, 25, 70),
		sp(spanReleaseHandler, 0, 30, 40),
		sp(spanReleaseHandler, 1, 45, 55),
	}
	got := a.attribute(fanout)
	sum := int64(0)
	for _, v := range got {
		sum += v
	}
	if sum != 100 {
		t.Errorf("fan-out self times add up to %d, want 100: %v", sum, got)
	}
	if handler := got[1]; handler != 80-50 {
		t.Errorf("handler self time = %d, want 30: the calls cover 20..70 once", handler)
	}
	// A release's span belongs to its own release's call, whichever
	// call's interval also happens to contain it.
	if p := parentOf(fanout, 4); p != 2 {
		t.Errorf("parent of release 0's handler = %d, want its own call (2)", p)
	}
	if p := parentOf(fanout, 5); p != 3 {
		t.Errorf("parent of release 1's handler = %d, want its own call (3)", p)
	}
}

func equalInt64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
