package repro

// PaperTable2Cell is one published cell of Table 2 ("Duration of managed
// upgrade"), kept as the paper prints it, including the qualitative notes.
type PaperTable2Cell struct {
	Criterion1 string
	Criterion2 string
	Criterion3 string
}

// PaperTable2 returns the published Table 2, keyed by scenario name then
// detection regime name, for side-by-side reporting in cmd/repro. Values
// are demands until switch.
func PaperTable2() map[string]map[string]PaperTable2Cell {
	return map[string]map[string]PaperTable2Cell{
		"scenario-1": {
			"perfect": {
				Criterion1: "35,500 demands",
				Criterion2: "Not attainable (> 50,000)",
				Criterion3: "40,000 demands",
			},
			"omission": {
				Criterion1: "22,000 (oscillates till 26,000)",
				Criterion2: "50,000 demands",
				Criterion3: "35,000 demands",
			},
			"back-to-back": {
				Criterion1: "20,000",
				Criterion2: "40,000",
				Criterion3: "34,000 demands",
			},
		},
		"scenario-2": {
			"perfect": {
				Criterion1: "1,400 demands",
				Criterion2: "10,000 demands",
				Criterion3: "1,100 demands",
			},
			"omission": {
				Criterion1: "1,400 demands",
				Criterion2: "7,000",
				Criterion3: "1,100 demands",
			},
			"back-to-back": {
				Criterion1: "1,400 demands",
				Criterion2: "6,000 demands",
				Criterion3: "1,100 demands",
			},
		},
	}
}

// PaperSimCell is one published system cell of Table 5 or 6: MET (s),
// and CR, EER, NER, NRDT out of 10,000 requests. DESIGN.md §4.1 sets the
// run-1 cells beside the engine's.
type PaperSimCell struct {
	MET                float64
	CR, EER, NER, NRDT int
}

// PaperTable5SystemRun1 returns the paper's Table 5 run-1 system cells
// keyed by timeout.
func PaperTable5SystemRun1() map[float64]PaperSimCell {
	return map[float64]PaperSimCell{
		1.5: {MET: 1.2194, CR: 6762, EER: 1449, NER: 1463, NRDT: 326},
		2.0: {MET: 1.2290, CR: 6815, EER: 1470, NER: 1472, NRDT: 243},
		3.0: {MET: 1.2357, CR: 6851, EER: 1475, NER: 1480, NRDT: 194},
	}
}

// PaperTable6SystemRun1 returns the paper's Table 6 run-1 system cells
// keyed by timeout.
func PaperTable6SystemRun1() map[float64]PaperSimCell {
	return map[float64]PaperSimCell{
		1.5: {MET: 1.2095, CR: 7759, EER: 755, NER: 1177, NRDT: 309},
		2.0: {MET: 1.2191, CR: 7812, EER: 758, NER: 1194, NRDT: 236},
		3.0: {MET: 1.2267, CR: 7853, EER: 768, NER: 1201, NRDT: 178},
	}
}
