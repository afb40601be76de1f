package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
)

// The repeatability check runs what the benchmark's driver runs: two
// sets of k runs of each workload, every run a fresh process with a seed
// of its own, and for each end-to-end metric the spread within a set
// and the movement of the median between the sets, both against the
// metric's bound. baseline.json is this report at the commit that
// defined the benchmark.

// setStats describes one metric over one set of runs.
type setStats struct {
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is the distance between the quartiles as a share of the
	// median.
	Spread float64 `json:"spread"`
}

// comparison is one metric on one workload: the two sets, and whether
// they meet the metric's bound.
type comparison struct {
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  float64  `json:"bound"`
	A      setStats `json:"a"`
	B      setStats `json:"b"`
	// Worse is how much worse set B's median is than set A's, as a
	// share of A's; negative when it is better.
	Worse float64 `json:"worse"`
	// Steady: both spreads within the bound (not asked of setup_s).
	Steady bool `json:"steady"`
	// Agree: B's median no worse than A's by more than the bound.
	Agree bool `json:"agree"`
}

type repeatReport struct {
	Machine    map[string]string                `json:"machine"`
	Seconds    int                              `json:"seconds"`
	RunsPerSet int                              `json:"runs_per_set"`
	Workloads  map[string]map[string]comparison `json:"workloads"`
	Accepted   bool                             `json:"accepted"`
	Claim      *string                          `json:"claim"`
}

func runRepeat(k int, only string, seconds int, stdout, stderr io.Writer) int {
	selected := workloads
	if only != "" {
		w, ok := workloadByName(only)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", only)
			return 2
		}
		selected = []workload{w}
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	// values[set][workload][metric] collects the runs.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range selected {
			values[set][w.name] = map[string][]float64{}
			for i := 0; i < k; i++ {
				seed := set*k + i + 1
				rep, err := runChild(self, w.name, seed, seconds, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", w.name, seed, err)
					return 1
				}
				for name, m := range rep.Metrics {
					values[set][w.name][name] = append(values[set][w.name][name], m.Value)
				}
			}
		}
	}

	out := repeatReport{
		Machine: machine(), Seconds: seconds, RunsPerSet: k,
		Workloads: map[string]map[string]comparison{}, Accepted: true,
	}
	fmt.Fprintf(stderr, "\n%-18s %-24s %10s %8s %10s %8s %8s %6s\n",
		"workload", "metric", "median A", "spread", "median B", "spread", "worse", "bound")
	for _, w := range selected {
		out.Workloads[w.name] = map[string]comparison{}
		for _, m := range endToEnd {
			c := compare(m, values[0][w.name][m.name], values[1][w.name][m.name])
			out.Workloads[w.name][m.name] = c
			mark := ""
			if !c.Steady || !c.Agree {
				out.Accepted = false
				mark = "  <-- outside the bound"
			}
			fmt.Fprintf(stderr, "%-18s %-24s %10.4g %7.1f%% %10.4g %7.1f%% %+7.1f%% %5.0f%%%s\n",
				w.name, m.name, c.A.Median, 100*c.A.Spread, c.B.Median, 100*c.B.Spread, 100*c.Worse, 100*m.bound, mark)
		}
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if !out.Accepted {
		return 1
	}
	return 0
}

// runChild runs one workload in a fresh process and parses the report
// from the last line of its standard output.
func runChild(self, workload string, seed, seconds int, stderr io.Writer) (*report, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.Itoa(seed),
		"-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("parsing the report: %w", err)
	}
	if !rep.Correct {
		return nil, fmt.Errorf("the run was not correct")
	}
	return &rep, nil
}

func compare(m metric, a, b []float64) comparison {
	c := comparison{Unit: m.unit, Better: m.better, Bound: m.bound, A: describe(a), B: describe(b)}
	c.Worse = (c.B.Median - c.A.Median) / c.A.Median
	if m.better == "higher" {
		c.Worse = -c.Worse
	}
	c.Steady = m.name == "setup_s" || (c.A.Spread <= m.bound && c.B.Spread <= m.bound)
	c.Agree = c.Worse <= m.bound
	return c
}

func describe(values []float64) setStats {
	s := setStats{Values: values, Median: median(values)}
	s.Q1, s.Q3 = quartiles(values)
	s.Spread = (s.Q3 - s.Q1) / s.Median
	return s
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// which is what the benchmark's driver uses.
func quartiles(values []float64) (q1, q3 float64) {
	x := slices.Clone(values)
	slices.Sort(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(3)
}

// machine describes where the numbers were taken.
func machine() map[string]string {
	m := map[string]string{
		"go":         runtime.Version(),
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"processors": strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m["kernel"] = strings.TrimSpace(string(b))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				m["cpu"] = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/meminfo"); err == nil {
		if line, _, ok := strings.Cut(string(b), "\n"); ok {
			m["memory"] = strings.Join(strings.Fields(strings.TrimPrefix(line, "MemTotal:")), " ")
		}
	}
	return m
}
