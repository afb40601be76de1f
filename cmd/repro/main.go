// Command repro regenerates every table and figure of the paper's
// evaluation section as one report (see DESIGN.md §7 for the experiment
// index), in this order: Table 2 (duration of managed upgrade), Figures
// 7 and 8 (Scenario 1 and 2 percentile trajectories), Tables 5 and 6
// (the §5.2 study on the engine, correlated and independent releases,
// with the paper's run-1 System cells beside the engine's) and the §4.2
// operating-mode ablation.
//
// Output is plain text; `make repro` writes it to REPRO.txt. Seeds
// default to fixed values so runs are reproducible; change -seed to
// explore variability, and -requests, -step and -demands for a smaller
// run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(args []string, out, progress io.Writer) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	var (
		seed     = fs.Uint64("seed", 42, "random seed")
		requests = fs.Int("requests", 10000, "demands per block (tables 5-6, ablation)")
		step     = fs.Int("step", 500, "inference checkpoint granularity (table 2, figures)")
		demands  = fs.Int("demands", 0, "override the sweep length (0 = paper's 50,000)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	runStudy := func(s relmodel.Scenario, step, max int) (*repro.StudyResult, error) {
		return repro.RunSwitchStudy(repro.StudyConfig{
			Scenario:   s,
			Step:       step,
			MaxDemands: max,
			Grid:       repro.GridConfig{A: 80, B: 80, C: 24, AB: 120},
			Seed:       *seed,
		})
	}
	fmt.Fprintln(progress, "# Running the Bayesian switch studies (Scenarios 1 and 2)...")
	s1, err := runStudy(relmodel.Scenario1(), *step, *demands)
	if err != nil {
		return err
	}
	s2max := *demands
	if s2max == 0 {
		s2max = 15000 // the paper's Scenario 2 plots stop at 10,000
	}
	s2, err := runStudy(relmodel.Scenario2(), min(*step, 100), s2max)
	if err != nil {
		return err
	}
	section := func(s string) {
		fmt.Fprintln(out)
		fmt.Fprint(out, s)
	}
	section(repro.FormatTable2(s1, s2))
	section(repro.FormatTrajectory(s1))
	section(repro.FormatTrajectory(s2))

	for _, table := range []struct {
		title      string
		correlated bool
		paper      map[float64]repro.PaperSimCell
	}{
		{"Table 5: simulation results, correlated release behaviour", true, repro.PaperTable5SystemRun1()},
		{"Table 6: simulation results, independent release behaviour", false, repro.PaperTable6SystemRun1()},
	} {
		rows, err := repro.RunAvailabilityStudy(repro.AvailabilityConfig{
			Correlated: table.correlated, Requests: *requests, Seed: *seed})
		if err != nil {
			return err
		}
		section(repro.FormatAvailability(table.title, rows, table.paper))
	}

	rows, err := repro.RunModeAblation(1, 2.0, *requests, *seed)
	if err != nil {
		return err
	}
	section(repro.FormatModeAblation(rows))
	return nil
}
