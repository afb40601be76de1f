package analysis_test

import (
	"testing"

	"wsupgrade/internal/analysis"
)

func TestPoolCheck(t *testing.T) {
	runGolden(t, ".", "./testdata/src/pc", analysis.PoolCheck)
}

func TestBoundedRead(t *testing.T) {
	runGolden(t, ".", "./testdata/src/br", analysis.BoundedRead)
}

func TestCtxHygiene(t *testing.T) {
	runGolden(t, ".", "./testdata/src/dispatch", analysis.CtxHygiene)
}

func TestDetRand(t *testing.T) {
	runGolden(t, ".", "./testdata/src/repro", analysis.DetRand)
}

func TestNoAlloc(t *testing.T) {
	runGolden(t, ".", "./testdata/src/na", analysis.NoAlloc)
}

// TestRepoClean is the smoke test: the full suite over the whole module
// must come back empty, so `make lint` stays green.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module analysis is slow; skipped in -short mode")
	}
	diags, err := analysis.Run("../..", []string{"./..."}, analysis.All())
	if err != nil {
		t.Fatalf("analysis.Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("unexpected finding: %s", d.String())
	}
}
