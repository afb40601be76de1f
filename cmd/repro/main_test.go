package main

import (
	"io"
	"strings"
	"sync"
	"testing"
)

// small is a whole report at a size a test can afford.
var small = []string{"-requests", "200", "-step", "1000", "-demands", "3000", "-seed", "1"}

var (
	smallOnce sync.Once
	smallText string
	smallErr  error
)

// smallReport runs the small whole report once and hands its text to
// every test that checks a section of it.
func smallReport(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("inference sweep")
	}
	smallOnce.Do(func() {
		var out strings.Builder
		smallErr = run(small, &out, io.Discard)
		smallText = out.String()
	})
	if smallErr != nil {
		t.Fatal(smallErr)
	}
	return smallText
}

func assertContains(t *testing.T, text string, wants ...string) {
	t.Helper()
	for _, want := range wants {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunTable2AndFiguresSmall(t *testing.T) {
	text := smallReport(t)
	assertContains(t, text, "Table 2", "scenario-1", "scenario-2", "criterion-3", "Figure 7", "Figure 8")
	if strings.Contains(text, "# Running") {
		t.Error("the progress line went to the report")
	}
}

func TestRunTable5Small(t *testing.T) {
	assertContains(t, smallReport(t), "Table 5", "MET", "NRDT", "System", "paper")
}

func TestRunTable6Small(t *testing.T) {
	assertContains(t, smallReport(t), "Table 6", "independent")
}

func TestRunModeAblation(t *testing.T) {
	assertContains(t, smallReport(t), "sequential")
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &out, io.Discard); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// Tables 5 and 6 come from the engine on a virtual clock, and Table 2
// and the figures from a seeded study: the same seed prints the same
// bytes however the engine's goroutines interleave.
func TestRunReportDeterministic(t *testing.T) {
	first := smallReport(t)
	var again strings.Builder
	if err := run(small, &again, io.Discard); err != nil {
		t.Fatal(err)
	}
	if first != again.String() {
		t.Fatalf("same seed, different reports:\n%s\n%s", first, again.String())
	}
}
