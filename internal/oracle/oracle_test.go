package oracle

import (
	"errors"
	"testing"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/httpx"
	"wsupgrade/internal/protocol"
	"wsupgrade/internal/protocol/soapcodec"
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
}

// unaskedCodec fails the test if its Equal is called.
type unaskedCodec struct {
	protocol.Codec
	t *testing.T
}

func (c unaskedCodec) Equal(a, b []byte) bool {
	c.t.Errorf("Equal(%q, %q) asked of the codec", a, b)
	return false
}

// TestTwinPayloadsEqualByIdentity holds payloadEqual's same-slice check:
// a twin's payload is its sibling's own slice (dispatch), and both
// comparison oracles take it as agreement without asking the codec.
func TestTwinPayloadsEqualByIdentity(t *testing.T) {
	payload := []byte("<r>42</r>")
	replies := []adjudicate.Reply{
		{Release: "1.0", Body: payload},
		{Release: "1.1", Body: payload},
	}
	codec := unaskedCodec{soapcodec.Default, t}
	for _, o := range []Oracle{Reference{Release: "1.0", Codec: codec}, BackToBack{Codec: codec}} {
		if failed := o.JudgeInto(nil, "op", replies); failed[0] || failed[1] {
			t.Errorf("%T judged twins %v", o, failed)
		}
	}
}
