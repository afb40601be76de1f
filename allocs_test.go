//go:build !race

// The race detector makes sync.Pool drop a share of its Puts at random,
// so under -race every pooled row reads several allocations more per
// operation and the ceilings below would not hold; the build tag keeps
// them to the plain `go test ./...`.

package wsupgrade

import "testing"

// allocCeilings caps the allocations per operation of the benchmark rows
// that cover the demand path and its parts, each at what the row needs
// (why a row needs any is said where the row is defined), so a row that
// gains one allocation fails. The JSONEqual rows are pinned at what
// encoding/json's decoding of both payloads allocates today, so that a
// DOM-free comparison shows as a ceiling lowered, and
// back-to-back-64k-declined-differ at what soap.Canonicalize allocates
// for both of its documents, which the canonical scanner declines.
var allocCeilings = []struct {
	row string
	max float64
}{
	{"EngineInProcess/old-only-fastpath", 0},
	{"EngineInProcess/old-only-fastpath-journaled", 0},
	{"EngineInProcess/json-fastpath", 0},
	{"EngineInProcess/parallel", 0},
	{"EngineInProcess/observation-large", 2},
	{"EngineInProcess/observation-publish", 0},
	{"EngineInProcess/observation-publish-warm", 0},
	{"EngineInProcess/live-shape-oldonly", 0},
	{"EngineInProcess/live-shape-parallel", 0},
	{"FleetInProcess/fleet-routed", 0},
	{"FleetInProcess/fleet-routed-json", 0},
	{"FleetInProcess/fleet-taken-over", 0},
	{"FleetInProcess/fleet-taken-over-large", 0},
	{"WhiteBoxPosterior/scenario-grid-n0", 2},
	{"WhiteBoxPosterior/scenario-grid-n6000", 2},
	{"WhiteBoxPosterior/scenario-grid-n1e6", 2},
	{"WhiteBoxPosterior/scenario-grid-advancing", 2},
	{"MonitorNote/interned", 0},
	{"OracleJudge/fault-only", 0},
	{"OracleJudge/header-truth", 0},
	{"OracleJudge/reference(1.0)", 0},
	{"OracleJudge/back-to-back", 0},
	{"OracleJudge/back-to-back-64k-differ", 0},
	{"OracleJudge/back-to-back-64k-late-differ", 0},
	{"OracleJudge/back-to-back-64k-reformatted", 0},
	{"OracleJudge/back-to-back-1500-elements-reformatted", 0},
	{"OracleJudge/back-to-back-64k-declined-differ", 74},
	{"JSONDecodeReply/0.4KB", 0},
	{"JSONDecodeReply/64KB", 0},
	{"JSONEqual/64KB-whitespace", 50},
	{"JSONEqual/64KB-reordered", 50},
	{"JSONEqual/64KB-early-differ", 50},
}

// TestAllocationCeilings runs each capped row as its benchmark does —
// setup and warm-up, then the operation — and counts the operation's
// allocations with testing.AllocsPerRun, which runs it at GOMAXPROCS=1.
func TestAllocationCeilings(t *testing.T) {
	rows := map[string]benchRow{}
	for bench, set := range map[string][]benchRow{
		"EngineInProcess":   engineInProcessRows,
		"FleetInProcess":    fleetInProcessRows,
		"WhiteBoxPosterior": whiteBoxPosteriorRows,
		"MonitorNote":       monitorNoteRows,
		"OracleJudge":       oracleJudgeRows,
		"JSONDecodeReply":   jsonDecodeReplyRows,
		"JSONEqual":         jsonEqualRows,
	} {
		for _, r := range set {
			rows[bench+"/"+r.name] = r
		}
	}
	for _, c := range allocCeilings {
		t.Run(c.row, func(t *testing.T) {
			r, ok := rows[c.row]
			if !ok {
				t.Fatalf("no benchmark row %s", c.row)
			}
			if got := testing.AllocsPerRun(1000, r.setup(t)); got > c.max {
				t.Errorf("%v allocs/op, ceiling %v", got, c.max)
			}
		})
	}
}
