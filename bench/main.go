// Command bench is the mediation benchmark: what a composite service
// pays — in latency, capacity, CPU, allocations — for calling a component
// Web Service through the managed-upgrade mediator instead of directly.
//
// One run is one workload in one fresh process:
//
//	bench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// It deploys a real fleet.Fleet behind net/http on loopback TCP in front
// of two bench-owned stub releases, drives it closed-loop, checks every
// reply, and prints as the last line of standard output one JSON object:
// the end-to-end metrics (-trace 0) or the per-layer metrics of a traced
// run (-trace 1). It exits non-zero, naming the gate, when a run fails a
// correctness gate. See README.md.
//
//	bench -repeat <k> [-workload <name>]
//
// runs two sets of k runs of each workload and reports whether the sets
// agree within each end-to-end metric's bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(argv []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("bench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	name := flags.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flags.Uint64("seed", 1, "seed of the request table and the new release's wrong answers")
	seconds := flags.Int("seconds", defaultSeconds, "seconds to measure")
	trace := flags.Int("trace", 0, "1 runs the traced run and reports the per-layer metrics")
	traceFile := flags.String("tracefile", "", "where the traced run writes its spans (default .bench_build/trace-<workload>.jsonl)")
	repeat := flags.Int("repeat", 0, "run two sets of this many runs per workload and compare them")
	if err := flags.Parse(argv); err != nil {
		return 2
	}
	if flags.NArg() > 0 || *seconds < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -help")
		return 2
	}
	if *repeat > 0 {
		return runRepeat(*repeat, *name, *seconds, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q; have %s\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	o := defaultOptions(w, *seed, *seconds, *trace == 1)
	o.log = stderr
	if *traceFile != "" {
		o.traceFile = *traceFile
	}
	res, err := runWorkload(o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	for _, v := range res.violations {
		fmt.Fprintf(stderr, "bench: %s: FAILED: %s\n", w.name, v)
	}
	if err := writeReport(stdout, &o, res); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if len(res.violations) > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// measured is one metric's value as the driver reads it.
type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the last line of standard output, with exactly these keys.
type report struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

// summary precedes the report: the run's circumstances, for a reader.
// This benchmark measures; it claims nothing.
type summary struct {
	Workload   string  `json:"workload"`
	Why        string  `json:"why"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Traced     bool    `json:"traced"`
	Clients    int     `json:"clients"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Windows    int     `json:"p99_windows"`
	Pairs      int     `json:"saturated_pairs"`
	// EndToEnd is always measured; in a traced run it rests on half the
	// samples and is not what the report carries.
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer,omitempty"`
	Violations []string           `json:"violations"`
	Claim      *string            `json:"claim"`
}

func makeReport(o *options, res *result) report {
	table, values := endToEnd, res.endToEnd
	if o.trace {
		table, values = perLayer, res.perLayer
	}
	rep := report{
		Correct:   len(res.violations) == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]measured, len(table)),
	}
	for _, m := range table {
		rep.Metrics[m.name] = measured{Value: values[m.name], Unit: m.unit}
	}
	return rep
}

func writeReport(w io.Writer, o *options, res *result) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(summary{
		Workload: o.workload.name, Why: o.workload.why, Seed: o.seed, Seconds: o.measure.Seconds(),
		Traced: o.trace, Clients: res.clients, GOMAXPROCS: runtime.GOMAXPROCS(0),
		Windows: res.windows, Pairs: res.pairs, EndToEnd: res.endToEnd, PerLayer: res.perLayer,
		Violations: append([]string{}, res.violations...),
	}); err != nil {
		return err
	}
	return enc.Encode(makeReport(o, res))
}
