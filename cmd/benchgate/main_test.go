package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: wsupgrade
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkEngineInProcess/parallel         	     500	     28089 ns/op	   10243 B/op	      34 allocs/op
BenchmarkEngineInProcess/old-only-fastpath         	     500	     10376 ns/op	    8183 B/op	      26 allocs/op
BenchmarkEngineInProcess/parallel-8         	     500	     27000 ns/op	   10000 B/op	      33 allocs/op
BenchmarkEngineInProcess/old-only-fastpath-8       	     500	      9900 ns/op	    8100 B/op	      27 allocs/op
BenchmarkAblationModes/reliability 	 100 	 120000 ns/op	         2.9 execs/req	        56.1 sysMET-s	  5000 B/op	     120 allocs/op
PASS
ok  	wsupgrade	0.232s
`

func TestParseRuns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.out")
	if err := os.WriteFile(path, []byte(sampleOutput), 0o644); err != nil {
		t.Fatal(err)
	}
	runs, err := parseRuns(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 {
		t.Fatalf("runs = %d, want 2 (repeated benchmarks split per run)", len(runs))
	}
	// The -8 GOMAXPROCS suffix must be stripped so runs compare across
	// machines.
	m, ok := runs[0]["EngineInProcess/parallel"]
	if !ok {
		t.Fatalf("missing EngineInProcess/parallel in %v", runs[0])
	}
	if m.AllocsPerOp != 34 || m.BytesPerOp != 10243 {
		t.Fatalf("metrics = %+v", m)
	}
	if runs[1]["EngineInProcess/old-only-fastpath"].AllocsPerOp != 27 {
		t.Fatalf("second run = %+v", runs[1])
	}
	// Extra ReportMetric columns must not break the line match.
	if runs[0]["AblationModes/reliability"].AllocsPerOp != 120 {
		t.Fatalf("ablation line = %+v", runs[0])
	}
}

func TestBestFold(t *testing.T) {
	runs := []map[string]Metrics{
		{"a": {NsPerOp: 100, AllocsPerOp: 30}},
		{"a": {NsPerOp: 90, AllocsPerOp: 28}},
		{"a": {NsPerOp: 200, AllocsPerOp: 28}},
	}
	b := best(runs)
	if b["a"].AllocsPerOp != 28 || b["a"].NsPerOp != 90 {
		t.Fatalf("best = %+v", b["a"])
	}
}

func TestCheckGate(t *testing.T) {
	dir := t.TempDir()
	writeFile := func(name, content string) string {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	baseline := writeFile("bench_baseline.json", `{"fast": {"ns_op": 100, "b_op": 800, "allocs_op": 20}}`)

	// Within the 10% budget: 22 allocs vs baseline 20.
	writeFile("BENCH_1.json", `{"fast": {"ns_op": 120, "b_op": 900, "allocs_op": 22}}`)
	if err := check(baseline, dir, "fast", 0.10); err != nil {
		t.Fatalf("within-budget check failed: %v", err)
	}
	// Over budget: 23 allocs.
	writeFile("BENCH_1.json", `{"fast": {"ns_op": 120, "b_op": 900, "allocs_op": 23}}`)
	err := check(baseline, dir, "fast", 0.10)
	if err == nil || !strings.Contains(err.Error(), "regressed") {
		t.Fatalf("over-budget check: err = %v", err)
	}
	// A gated benchmark missing from the results must fail, not pass
	// silently.
	if err := check(baseline, dir, "fast,ghost", 0.10); err == nil {
		t.Fatal("missing gated benchmark passed")
	}
}
