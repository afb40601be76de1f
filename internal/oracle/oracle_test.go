package oracle

import (
	"errors"
	"testing"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/httpx"
	"wsupgrade/internal/xrand"
)

var errBoom = errors.New("boom")

func valid(release, body string) adjudicate.Reply {
	return adjudicate.Reply{Release: release, Body: []byte(body)}
}

func evident(release string) adjudicate.Reply {
	return adjudicate.Reply{Release: release, Err: errBoom}
}

func TestFaultOnly(t *testing.T) {
	o := FaultOnly{}
	failed := o.JudgeInto(nil, "op", []adjudicate.Reply{
		valid("1.0", "<r>1</r>"),
		evident("1.1"),
		valid("1.2", "<r>wrong</r>"), // non-evident: passes undetected
	})
	want := []bool{false, true, false}
	for i := range want {
		if failed[i] != want[i] {
			t.Fatalf("failed = %v, want %v", failed, want)
		}
	}
	if o.Name() != "fault-only" {
		t.Fatalf("name = %q", o.Name())
	}
}

func TestReferenceDetectsDisagreement(t *testing.T) {
	o := Reference{Release: "1.0"}
	failed := o.JudgeInto(nil, "op", []adjudicate.Reply{
		valid("1.0", "<r>42</r>"),
		valid("1.1", "<r>43</r>"),
	})
	if failed[0] || !failed[1] {
		t.Fatalf("failed = %v; the reference is trusted, the deviator flagged", failed)
	}
	// Formatting differences are not failures.
	failed = o.JudgeInto(nil, "op", []adjudicate.Reply{
		valid("1.0", "<r><x>1</x></r>"),
		valid("1.1", "<r>\n  <x>1</x>\n</r>"),
	})
	if failed[0] || failed[1] {
		t.Fatalf("formatting flagged as failure: %v", failed)
	}
	if o.Name() != "reference(1.0)" {
		t.Fatalf("name = %q", o.Name())
	}
}

func TestReferenceWithFailedReference(t *testing.T) {
	o := Reference{Release: "1.0"}
	failed := o.JudgeInto(nil, "op", []adjudicate.Reply{
		evident("1.0"),
		valid("1.1", "<r>anything</r>"),
	})
	// No comparison basis: only the evident failure is detected.
	if !failed[0] || failed[1] {
		t.Fatalf("failed = %v", failed)
	}
}

func TestBackToBackFlagsBothOnDisagreement(t *testing.T) {
	o := BackToBack{}
	failed := o.JudgeInto(nil, "op", []adjudicate.Reply{
		valid("1.0", "<r>1</r>"),
		valid("1.1", "<r>2</r>"),
	})
	if !failed[0] || !failed[1] {
		t.Fatalf("disagreement not flagged on both: %v", failed)
	}
	// Agreement — including coincident identical failures — passes:
	// the paper's pessimistic '11'→'00' model.
	failed = o.JudgeInto(nil, "op", []adjudicate.Reply{
		valid("1.0", "<r>same-wrong</r>"),
		valid("1.1", "<r>same-wrong</r>"),
	})
	if failed[0] || failed[1] {
		t.Fatalf("identical responses flagged: %v", failed)
	}
	if o.Name() != "back-to-back" {
		t.Fatalf("name = %q", o.Name())
	}
}

func TestBackToBackSingleValidReply(t *testing.T) {
	o := BackToBack{}
	failed := o.JudgeInto(nil, "op", []adjudicate.Reply{
		evident("1.0"),
		valid("1.1", "<r>1</r>"),
	})
	if !failed[0] || failed[1] {
		t.Fatalf("failed = %v", failed)
	}
}

func TestHeaderOracleReadsGroundTruth(t *testing.T) {
	o := Header{}
	h := func(kind string) httpx.Header {
		return httpx.Header(InjectionHeader + ": " + kind + "\n")
	}
	replies := []adjudicate.Reply{
		{Release: "1.0", Body: []byte("<r/>"), Header: h("CR")},
		{Release: "1.1", Body: []byte("<r/>"), Header: h("NER")},
		{Release: "1.2", Body: []byte("<r/>"), Header: h("ER")},
		{Release: "1.3", Body: []byte("<r/>")}, // no header: trusted
		{Release: "1.4", Err: errBoom},
	}
	failed := o.JudgeInto(nil, "op", replies)
	want := []bool{false, true, true, false, true}
	for i := range want {
		if failed[i] != want[i] {
			t.Fatalf("failed = %v, want %v", failed, want)
		}
	}
	if o.Name() != "header-truth" {
		t.Fatalf("name = %q", o.Name())
	}
}

func TestWithOmissionMissesFailures(t *testing.T) {
	inner := Header{}
	o, err := NewWithOmission(inner, 0.5, xrand.New(7))
	if err != nil {
		t.Fatal(err)
	}
	h := httpx.Header(InjectionHeader + ": NER\n")
	missed, caught := 0, 0
	for i := 0; i < 2000; i++ {
		failed := o.JudgeInto(nil, "op", []adjudicate.Reply{{Release: "1.1", Body: []byte("<r/>"), Header: h}})
		if failed[0] {
			caught++
		} else {
			missed++
		}
	}
	if missed < 800 || missed > 1200 {
		t.Fatalf("missed %d of 2000 with pomit 0.5", missed)
	}
	if caught == 0 {
		t.Fatal("omission oracle never detects")
	}
	if o.Name() == "" {
		t.Fatal("empty name")
	}
}

func TestWithOmissionNeverInventsFailures(t *testing.T) {
	o, err := NewWithOmission(FaultOnly{}, 0.5, xrand.New(8))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		failed := o.JudgeInto(nil, "op", []adjudicate.Reply{valid("1.0", "<r/>")})
		if failed[0] {
			t.Fatal("omission oracle invented a failure")
		}
	}
}

func TestWithOmissionValidation(t *testing.T) {
	if _, err := NewWithOmission(nil, 0.5, xrand.New(1)); err == nil {
		t.Fatal("nil inner accepted")
	}
	if _, err := NewWithOmission(FaultOnly{}, -1, xrand.New(1)); err == nil {
		t.Fatal("negative pomit accepted")
	}
	if _, err := NewWithOmission(FaultOnly{}, 0.5, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}
