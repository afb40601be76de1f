// Command benchgate is the benchmark-regression harness: it parses `go
// test -bench -benchmem -count=N` output into per-run JSON snapshots
// (BENCH_<n>.json, benchmark name → ns/op, B/op, allocs/op) and gates
// allocs/op against a checked-in baseline.
//
// Parse a bench run into snapshots:
//
//	go test -run='^$' -bench=. -benchmem -count=5 . | tee bench.out
//	benchgate -parse bench.out -out .
//
// Gate the snapshots against the baseline (fails with exit 1 when any
// gated benchmark's best-of-N allocs/op regresses more than -max-regress
// over the baseline):
//
//	benchgate -check -baseline bench_baseline.json -results . \
//	    -keys 'EngineInProcess/old-only-fastpath,EngineInProcess/parallel,FleetInProcess/fleet-routed'
//
// Refresh the baseline from the current snapshots:
//
//	benchgate -update -baseline bench_baseline.json -results .
//
// Comparison uses the best (minimum) allocs/op across the N runs:
// allocation counts are deterministic modulo pool warm-up and GC timing,
// so the minimum is the true cost and the one safe to gate on a noisy
// CI box. ns/op is recorded for trend reading and never gated — wall
// clock on shared runners is not reproducible.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Metrics is one benchmark's measurement in one run.
type Metrics struct {
	NsPerOp     float64 `json:"ns_op"`
	BytesPerOp  int64   `json:"b_op"`
	AllocsPerOp int64   `json:"allocs_op"`
}

// benchLine matches one `-benchmem` result line. The trailing -N
// GOMAXPROCS suffix is stripped from the name so snapshots compare
// across differently sized machines.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(?:\s+[\d.]+ [^\s]+)*?\s+(\d+) B/op\s+(\d+) allocs/op`)

func parseRuns(path string) ([]map[string]Metrics, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []map[string]Metrics
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name := strings.TrimPrefix(m[1], "Benchmark")
		ns, _ := strconv.ParseFloat(m[2], 64)
		bo, _ := strconv.ParseInt(m[3], 10, 64)
		ao, _ := strconv.ParseInt(m[4], 10, 64)
		// With -count=N each benchmark repeats; occurrence i lands in
		// runs[i].
		idx := 0
		for idx < len(runs) {
			if _, seen := runs[idx][name]; !seen {
				break
			}
			idx++
		}
		if idx == len(runs) {
			runs = append(runs, map[string]Metrics{})
		}
		runs[idx][name] = Metrics{NsPerOp: ns, BytesPerOp: bo, AllocsPerOp: ao}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no -benchmem result lines in %s", path)
	}
	return runs, nil
}

func writeRuns(dir string, runs []map[string]Metrics) error {
	for i, run := range runs {
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", i+1))
		data, err := json.MarshalIndent(run, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("benchgate: wrote %s (%d benchmarks)\n", path, len(run))
	}
	return nil
}

func readRuns(dir string) ([]map[string]Metrics, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var runs []map[string]Metrics
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		run := map[string]Metrics{}
		if err := json.Unmarshal(data, &run); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		runs = append(runs, run)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("no BENCH_*.json snapshots in %s", dir)
	}
	return runs, nil
}

// best folds N runs into each benchmark's best measurement (minimum
// allocs/op; ns/op and B/op from that same run).
func best(runs []map[string]Metrics) map[string]Metrics {
	out := map[string]Metrics{}
	for _, run := range runs {
		for name, m := range run {
			cur, ok := out[name]
			if !ok || m.AllocsPerOp < cur.AllocsPerOp ||
				(m.AllocsPerOp == cur.AllocsPerOp && m.NsPerOp < cur.NsPerOp) {
				out[name] = m
			}
		}
	}
	return out
}

// splitKeys parses a comma-separated key list, dropping empties.
func splitKeys(keys string) []string {
	var out []string
	for _, key := range strings.Split(keys, ",") {
		if key = strings.TrimSpace(key); key != "" {
			out = append(out, key)
		}
	}
	return out
}

func check(baselinePath, resultsDir, keys string, maxRegress float64) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	baseline := map[string]Metrics{}
	if err := json.Unmarshal(data, &baseline); err != nil {
		return fmt.Errorf("%s: %w", baselinePath, err)
	}
	runs, err := readRuns(resultsDir)
	if err != nil {
		return err
	}
	current := best(runs)

	failed := false
	for _, key := range splitKeys(keys) {
		base, ok := baseline[key]
		if !ok {
			fmt.Printf("benchgate: FAIL %-45s not in baseline\n", key)
			failed = true
			continue
		}
		cur, ok := current[key]
		if !ok {
			fmt.Printf("benchgate: FAIL %-45s not in current results\n", key)
			failed = true
			continue
		}
		limit := int64(float64(base.AllocsPerOp) * (1 + maxRegress))
		status := "ok  "
		if cur.AllocsPerOp > limit {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("benchgate: %s %-45s allocs/op %4d (baseline %4d, limit %4d)  ns/op %.0f (baseline %.0f)\n",
			status, key, cur.AllocsPerOp, base.AllocsPerOp, limit, cur.NsPerOp, base.NsPerOp)
	}

	// Non-gated benchmarks are reported for trend reading only.
	names := make([]string, 0, len(current))
	for name := range current {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if strings.Contains(keys, name) {
			continue
		}
		if base, ok := baseline[name]; ok {
			fmt.Printf("benchgate: info %-45s allocs/op %4d (baseline %4d)\n",
				name, current[name].AllocsPerOp, base.AllocsPerOp)
		}
	}
	if failed {
		return fmt.Errorf("gated benchmarks regressed over %s", baselinePath)
	}
	return nil
}

func update(baselinePath, resultsDir string) error {
	runs, err := readRuns(resultsDir)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(best(runs), "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(baselinePath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("benchgate: baseline %s updated\n", baselinePath)
	return nil
}

func main() {
	var (
		parse      = flag.String("parse", "", "parse `go test -bench` output file into BENCH_<n>.json snapshots")
		out        = flag.String("out", ".", "directory for BENCH_<n>.json snapshots")
		doCheck    = flag.Bool("check", false, "gate BENCH_*.json snapshots against the baseline")
		doUpdate   = flag.Bool("update", false, "rewrite the baseline from BENCH_*.json snapshots")
		baseline   = flag.String("baseline", "bench_baseline.json", "baseline file")
		results    = flag.String("results", ".", "directory holding BENCH_*.json snapshots")
		keys       = flag.String("keys", "EngineInProcess/old-only-fastpath,EngineInProcess/parallel,FleetInProcess/fleet-routed", "comma-separated benchmark names gated on allocs/op")
		maxRegress = flag.Float64("max-regress", 0.10, "allowed fractional allocs/op regression")
	)
	flag.Parse()

	run := func() error {
		switch {
		case *parse != "":
			runs, err := parseRuns(*parse)
			if err != nil {
				return err
			}
			return writeRuns(*out, runs)
		case *doCheck:
			return check(*baseline, *results, *keys, *maxRegress)
		case *doUpdate:
			return update(*baseline, *results)
		default:
			return fmt.Errorf("one of -parse, -check or -update is required")
		}
	}
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
