package oracle

import (
	"testing"

	"wsupgrade/internal/adjudicate"
)

// corpus is the shared judgment corpus: the oracle edge cases the §4.3
// monitoring subsystem must hold verdicts on. Reference{Release: "1.0"}
// is the configured reference oracle throughout.
var corpus = []struct {
	name    string
	replies []adjudicate.Reply
}{
	{"agreeing", []adjudicate.Reply{
		valid("1.0", "<r><x>1</x></r>"),
		valid("1.1", "<r><x>1</x></r>"),
		valid("1.2", "<r><x>1</x></r>"),
	}},
	{"deviator", []adjudicate.Reply{
		valid("1.0", "<r>42</r>"),
		valid("1.1", "<r>43</r>"),
	}},
	{"reference-invalid", []adjudicate.Reply{
		evident("1.0"),
		valid("1.1", "<r>anything</r>"),
		valid("1.2", "<r>else</r>"),
	}},
	{"reference-missing", []adjudicate.Reply{
		valid("1.1", "<r>1</r>"),
		valid("1.2", "<r>2</r>"),
	}},
	{"all-invalid", []adjudicate.Reply{
		evident("1.0"),
		evident("1.1"),
	}},
	{"single-valid", []adjudicate.Reply{
		evident("1.0"),
		valid("1.1", "<r>1</r>"),
	}},
	// The §5.1.1.3 pessimistic case: both releases return the same wrong
	// answer; comparison-based detection records a joint success.
	{"coincident-identical-failure", []adjudicate.Reply{
		valid("1.0", "<r>same-wrong</r>"),
		valid("1.1", "<r>same-wrong</r>"),
	}},
	{"empty", nil},
}

var corpusOracles = []Oracle{
	FaultOnly{},
	Reference{Release: "1.0"},
	BackToBack{},
	Header{},
}

// TestJudgeIntoAgreesAcrossBuffers holds every oracle to
// verdict-for-verdict agreement between the allocating form (a nil
// destination) and caller-owned buffers across the corpus: ample,
// exact, stale and too-tight destinations.
func TestJudgeIntoAgreesAcrossBuffers(t *testing.T) {
	for _, o := range corpusOracles {
		for _, tc := range corpus {
			want := o.JudgeInto(nil, "op", tc.replies)
			if len(want) != len(tc.replies) {
				t.Fatalf("%#v/%s: JudgeInto(nil) returned %d verdicts for %d replies",
					o, tc.name, len(want), len(tc.replies))
			}
			for _, dst := range [][]bool{
				make([]bool, 0, len(tc.replies)),
				make([]bool, len(tc.replies)),
				{true, true, true, true, true, true, true, true}, // stale contents must be overwritten
				make([]bool, 0, 1),
			} {
				got := o.JudgeInto(dst, "op", tc.replies)
				if len(got) != len(want) {
					t.Fatalf("%#v/%s: JudgeInto returned %d verdicts, want %d",
						o, tc.name, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%#v/%s: verdict %d = %v, a nil dst gave %v (dst cap %d)",
							o, tc.name, i, got[i], want[i], cap(dst))
					}
				}
			}
		}
	}
}

// TestCorpusVerdicts pins the expected verdicts of the corpus edge cases
// for the deterministic oracles.
func TestCorpusVerdicts(t *testing.T) {
	for _, tc := range []struct {
		oracle Oracle
		corpus string
		want   []bool
	}{
		{Reference{Release: "1.0"}, "reference-invalid", []bool{true, false, false}},
		{Reference{Release: "1.0"}, "reference-missing", []bool{false, false}},
		{Reference{Release: "1.0"}, "deviator", []bool{false, true}},
		{BackToBack{}, "coincident-identical-failure", []bool{false, false}},
		{BackToBack{}, "single-valid", []bool{true, false}},
		{BackToBack{}, "reference-missing", []bool{true, true}}, // two valid, differing: both suspected
		{FaultOnly{}, "all-invalid", []bool{true, true}},
		{Header{}, "single-valid", []bool{true, false}},
	} {
		var replies []adjudicate.Reply
		for _, c := range corpus {
			if c.name == tc.corpus {
				replies = c.replies
			}
		}
		got := tc.oracle.JudgeInto(nil, "op", replies)
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Fatalf("%#v on %s: verdicts %v, want %v", tc.oracle, tc.corpus, got, tc.want)
			}
		}
	}
}

// TestOraclesSteadyStateZeroAlloc holds every oracle to zero allocations
// when judging with a caller buffer in steady state (agreeing releases:
// the overwhelmingly common case — byte-identical bodies never parse).
func TestOraclesSteadyStateZeroAlloc(t *testing.T) {
	replies := []adjudicate.Reply{
		valid("1.0", "<r><x>1</x></r>"),
		valid("1.1", "<r><x>1</x></r>"),
		valid("1.2", "<r><x>1</x></r>"),
	}
	for _, o := range corpusOracles {
		buf := make([]bool, 0, len(replies))
		allocs := testing.AllocsPerRun(200, func() {
			buf = o.JudgeInto(buf[:0], "op", replies)
		})
		if allocs != 0 {
			t.Errorf("%#v: %v allocs per steady-state JudgeInto, want 0", o, allocs)
		}
	}
}
