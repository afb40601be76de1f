package repro

import (
	"fmt"
	"strings"
	"text/tabwriter"
)

// FormatTable2 renders one or more switch studies as the paper's Table 2,
// with the published values alongside when available.
func FormatTable2(results ...*StudyResult) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	paper := PaperTable2()
	fmt.Fprintln(w, "Table 2: Duration of managed upgrade (demands until switch)")
	fmt.Fprintln(w, "scenario\tregime\tcriterion\tmeasured\tpaper")
	for _, res := range results {
		for _, rr := range res.Regimes {
			pcell, hasPaper := paper[res.Scenario][rr.Regime]
			pvals := [numCriteria]string{pcell.Criterion1, pcell.Criterion2, pcell.Criterion3}
			for ci, cr := range rr.Criteria {
				measured := "not attained"
				if cr.Attained {
					measured = fmt.Sprintf("%d", cr.FirstSwitch)
					if cr.StableSwitch > cr.FirstSwitch {
						measured += fmt.Sprintf(" (oscillates till %d)", cr.StableSwitch)
					}
				} else {
					measured = fmt.Sprintf("not attained (> %d)", res.Config.MaxDemands)
				}
				pv := "-"
				if hasPaper {
					pv = pvals[ci]
				}
				fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\n", res.Scenario, rr.Regime, cr.Criterion, measured, pv)
			}
		}
	}
	w.Flush()
	return b.String()
}

// FormatTrajectory renders a study's percentile curves as the data behind
// Fig 7 (Scenario 1) or Fig 8 (Scenario 2).
func FormatTrajectory(res *StudyResult) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fig := "Figure 7"
	if strings.HasSuffix(res.Scenario, "2") {
		fig = "Figure 8"
	}
	fmt.Fprintf(w, "%s: percentiles vs demands (%s)\n", fig, res.Scenario)
	fmt.Fprintln(w, "demands\tChB 90% perfect\tChB 99% perfect\tChB 99% omission\tChB 99% back-to-back\tChA 99% perfect")
	for _, p := range res.Trajectory {
		fmt.Fprintf(w, "%d\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\n",
			p.Demands, p.B90Perfect, p.B99Perfect, p.B99Omission, p.B99BackToBack, p.A99Perfect)
	}
	w.Flush()
	return b.String()
}

// FormatAvailability renders Table 5 or Table 6 rows in the paper's
// layout: one block per run × timeout with per-release and system
// columns. Beside each run-1 System cell that paper (keyed by timeout)
// holds, it prints the paper's value and the engine's difference from
// it; the paper's Total is its CR + EER + NER.
func FormatAvailability(title string, rows []AvailabilityRow, paper map[float64]PaperSimCell) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, "run\ttimeout\tmetric\tRel1\tRel2\tSystem\tpaper\tΔ")
	for _, row := range rows {
		r := row.Result
		rel1, rel2, sys := r.Rel1.cells(), r.Rel2.cells(), r.System.cells()
		p, hasPaper := paper[row.TimeOut]
		published := Tally{MET: p.MET, CR: p.CR, EER: p.EER, NER: p.NER, NRDT: p.NRDT}.cells()
		for i, metric := range []string{"MET", "CR", "EER", "NER", "Total", "NRDT"} {
			verb := "%.0f"
			if metric == "MET" {
				verb = "%.4f"
			}
			fmt.Fprintf(w, "%d\t%.1f\t%s\t"+verb+"\t"+verb+"\t"+verb, row.Run, row.TimeOut, metric, rel1[i], rel2[i], sys[i])
			if hasPaper && row.Run == 1 {
				fmt.Fprintf(w, "\t"+verb+"\t%+"+verb[1:], published[i], sys[i]-published[i])
			}
			fmt.Fprintln(w)
		}
	}
	w.Flush()
	return b.String()
}

// cells lists a tally in FormatAvailability's row order.
func (t Tally) cells() [6]float64 {
	return [6]float64{t.MET, float64(t.CR), float64(t.EER), float64(t.NER), float64(t.Total()), float64(t.NRDT)}
}

// FormatModeAblation renders the §4.2 operating-mode comparison.
func FormatModeAblation(rows []ModeAblationRow) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Operating-mode ablation (§4.2): system outcomes on one workload")
	fmt.Fprintln(w, "mode\tMET\tCR\tEER\tNER\tNRDT\texecutions")
	for _, row := range rows {
		s := row.Result.System
		fmt.Fprintf(w, "%s\t%.4f\t%d\t%d\t%d\t%d\t%d\n",
			row.Label, s.MET, s.CR, s.EER, s.NER, s.NRDT, s.Executions)
	}
	w.Flush()
	return b.String()
}
