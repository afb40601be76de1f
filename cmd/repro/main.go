// Command repro regenerates every table and figure of the paper's
// evaluation section (see DESIGN.md §4 for the experiment index):
//
//	repro -table 2      Table 2  (duration of managed upgrade)
//	repro -figure 7     Figure 7 (Scenario 1 percentile trajectories)
//	repro -figure 8     Figure 8 (Scenario 2 percentile trajectories)
//	repro -table 5      Table 5  (the §5.2 study on the engine, correlated releases)
//	repro -table 6      Table 6  (the §5.2 study on the engine, independent releases)
//	repro -ablation modes  Operating-mode ablation (§4.2)
//	repro -all          Everything above, in order.
//
// Output is plain text. Seeds default to fixed values so runs are
// reproducible; change -seed to explore variability.
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
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	var (
		table    = fs.Int("table", 0, "regenerate a table (2, 5 or 6)")
		figure   = fs.Int("figure", 0, "regenerate a figure (7 or 8)")
		ablation = fs.String("ablation", "", "run an ablation (\"modes\")")
		all      = fs.Bool("all", false, "regenerate everything")
		seed     = fs.Uint64("seed", 42, "random seed")
		requests = fs.Int("requests", 10000, "demands per block (tables 5-6, ablation)")
		step     = fs.Int("step", 500, "inference checkpoint granularity (table 2, figures)")
		demands  = fs.Int("demands", 0, "override the sweep length (0 = paper's 50,000)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*all && *table == 0 && *figure == 0 && *ablation == "" {
		*all = true
	}

	grid := repro.GridConfig{A: 80, B: 80, C: 24, AB: 120}

	runStudy := func(s relmodel.Scenario, step, max int) (*repro.StudyResult, error) {
		return repro.RunSwitchStudy(repro.StudyConfig{
			Scenario:   s,
			Step:       step,
			MaxDemands: max,
			Grid:       grid,
			Seed:       *seed,
		})
	}

	var s1, s2 *repro.StudyResult
	needStudies := *all || *table == 2 || *figure == 7 || *figure == 8
	if needStudies {
		var err error
		fmt.Fprintln(out, "# Running the Bayesian switch studies (Scenarios 1 and 2)...")
		s1, err = runStudy(relmodel.Scenario1(), *step, *demands)
		if err != nil {
			return err
		}
		s2max := *demands
		if s2max == 0 {
			s2max = 15000 // the paper's Scenario 2 plots stop at 10,000
		}
		s2, err = runStudy(relmodel.Scenario2(), min(*step, 100), s2max)
		if err != nil {
			return err
		}
	}

	if *all || *table == 2 {
		fmt.Fprintln(out)
		fmt.Fprint(out, repro.FormatTable2(s1, s2))
	}
	if *all || *figure == 7 {
		fmt.Fprintln(out)
		fmt.Fprint(out, repro.FormatTrajectory(s1))
	}
	if *all || *figure == 8 {
		fmt.Fprintln(out)
		fmt.Fprint(out, repro.FormatTrajectory(s2))
	}
	if *all || *table == 5 {
		rows, err := repro.RunAvailabilityStudy(repro.AvailabilityConfig{
			Correlated: true, Requests: *requests, Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Fprintln(out)
		fmt.Fprint(out, repro.FormatAvailability(
			"Table 5: simulation results, correlated release behaviour", rows))
	}
	if *all || *table == 6 {
		rows, err := repro.RunAvailabilityStudy(repro.AvailabilityConfig{
			Correlated: false, Requests: *requests, Seed: *seed})
		if err != nil {
			return err
		}
		fmt.Fprintln(out)
		fmt.Fprint(out, repro.FormatAvailability(
			"Table 6: simulation results, independent release behaviour", rows))
	}
	if *all || *ablation == "modes" {
		rows, err := repro.RunModeAblation(1, 2.0, *requests, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(out)
		fmt.Fprint(out, repro.FormatModeAblation(rows))
	}
	return nil
}
