package main

import (
	"strings"
	"testing"
)

func TestRunTable5Small(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table", "5", "-requests", "300", "-seed", "1"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"Table 5", "MET", "NRDT", "System"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(text, "Table 2") {
		t.Error("-table 5 also produced table 2")
	}
}

func TestRunTable6Small(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-table", "6", "-requests", "200"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "independent") {
		t.Error("table 6 output missing regime label")
	}
}

func TestRunModeAblation(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-ablation", "modes", "-requests", "200"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "sequential") {
		t.Error("ablation output missing modes")
	}
}

func TestRunTable2AndFiguresSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("inference sweep")
	}
	var out strings.Builder
	err := run([]string{"-table", "2", "-step", "1000", "-demands", "3000", "-seed", "1"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"Table 2", "scenario-1", "scenario-2", "criterion-3"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &out); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// Tables 5 and 6 come from the engine on a virtual clock: the same seed
// prints the same bytes however the engine's goroutines interleave.
func TestRunTable5Deterministic(t *testing.T) {
	var first, again strings.Builder
	args := []string{"-table", "5", "-requests", "500", "-seed", "7"}
	if err := run(args, &first); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &again); err != nil {
		t.Fatal(err)
	}
	if first.String() != again.String() {
		t.Fatalf("same seed, different tables:\n%s\n%s", first.String(), again.String())
	}
}
