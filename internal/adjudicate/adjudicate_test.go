package adjudicate

import (
	"errors"
	"testing"
	"time"

	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/xrand"
)

// The §5.2.1 rules by outcome kind (§2.1), as the engine meets them: a
// correct and a non-evidently wrong answer are both valid replies, and an
// evident failure carries an error.
func kindReplies(kinds ...relmodel.OutcomeKind) []Reply {
	replies := make([]Reply, len(kinds))
	for i, k := range kinds {
		switch k {
		case relmodel.Correct:
			replies[i] = Reply{Release: k.String(), Body: []byte("<sum>3</sum>")}
		case relmodel.NonEvidentFailure:
			replies[i] = Reply{Release: k.String(), Body: []byte("<sum>4</sum>")}
		default:
			replies[i] = Reply{Release: k.String(), Err: errBoom}
		}
	}
	return replies
}

func TestKindsUnavailable(t *testing.T) {
	if _, err := (RandomValid{}).Adjudicate(kindReplies(), xrand.New(1)); !errors.Is(err, ErrNoResponses) {
		t.Fatalf("empty collection: err = %v, want ErrNoResponses", err)
	}
}

func TestKindsAllEvident(t *testing.T) {
	_, err := RandomValid{}.Adjudicate(kindReplies(relmodel.EvidentFailure, relmodel.EvidentFailure), xrand.New(1))
	if !errors.Is(err, ErrAllEvident) {
		t.Fatalf("all-evident verdict: err = %v, want ErrAllEvident", err)
	}
}

func TestKindsFiltersEvident(t *testing.T) {
	rng := xrand.New(2)
	for i := 0; i < 100; i++ {
		got, err := RandomValid{}.Adjudicate(kindReplies(relmodel.EvidentFailure, relmodel.Correct), rng)
		if err != nil || got.Release != "CR" {
			t.Fatalf("evident response won over a valid one: %+v, %v", got, err)
		}
	}
}

func TestKindsRandomPickExposesNER(t *testing.T) {
	// With one correct and one non-evident response the consumer gets the
	// wrong answer about half the time — the §5.2.1 exposure.
	rng := xrand.New(3)
	replies := kindReplies(relmodel.Correct, relmodel.NonEvidentFailure)
	ner := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if got, _ := (RandomValid{}).Adjudicate(replies, rng); got.Release == "NER" {
			ner++
		}
	}
	if ner < n*4/10 || ner > n*6/10 {
		t.Fatalf("NER picked %d/%d times, want ~50%%", ner, n)
	}
}

func TestKindsSingleValid(t *testing.T) {
	got, err := RandomValid{}.Adjudicate(kindReplies(relmodel.NonEvidentFailure), xrand.New(4))
	if err != nil || got.Release != "NER" {
		t.Fatalf("single valid response mishandled: %+v, %v", got, err)
	}
}

func TestKindsDoesNotMutateInput(t *testing.T) {
	in := kindReplies(relmodel.EvidentFailure, relmodel.Correct, relmodel.NonEvidentFailure)
	_, _ = RandomValid{}.Adjudicate(in, xrand.New(5))
	if in[0].Release != "ER" || in[1].Release != "CR" || in[2].Release != "NER" || string(in[2].Body) != "<sum>4</sum>" {
		t.Fatal("input slice mutated")
	}
}

func reply(rel, body string, err error, ms int) Reply {
	var b []byte
	if err == nil {
		b = []byte(body)
	}
	return Reply{Release: rel, Body: b, Err: err, Latency: time.Duration(ms) * time.Millisecond}
}

var errBoom = errors.New("boom")

func TestRandomValidRules(t *testing.T) {
	rng := xrand.New(7)
	a := RandomValid{}

	if _, err := a.Adjudicate(nil, rng); !errors.Is(err, ErrNoResponses) {
		t.Fatalf("empty: err = %v, want ErrNoResponses", err)
	}
	_, err := a.Adjudicate([]Reply{reply("1.0", "", errBoom, 10)}, rng)
	if !errors.Is(err, ErrAllEvident) {
		t.Fatalf("all-evident: err = %v, want ErrAllEvident", err)
	}
	// Valid responses beat evident failures.
	for i := 0; i < 50; i++ {
		got, err := a.Adjudicate([]Reply{
			reply("1.0", "", errBoom, 10),
			reply("1.1", "answer", nil, 20),
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		if got.Release != "1.1" {
			t.Fatal("picked evident failure")
		}
	}
	if a.Name() != "random-valid" {
		t.Fatalf("name = %q", a.Name())
	}
}

func TestRandomValidIsUniform(t *testing.T) {
	rng := xrand.New(8)
	a := RandomValid{}
	counts := map[string]int{}
	const n = 10000
	for i := 0; i < n; i++ {
		got, err := a.Adjudicate([]Reply{
			reply("1.0", "x", nil, 10),
			reply("1.1", "y", nil, 20),
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[got.Release]++
	}
	if counts["1.0"] < n*4/10 || counts["1.0"] > n*6/10 {
		t.Fatalf("pick distribution %v not ~uniform", counts)
	}
}

func TestMajorityOutvotesMinority(t *testing.T) {
	rng := xrand.New(9)
	a := Majority{}
	got, err := a.Adjudicate([]Reply{
		reply("1.0", "42", nil, 10),
		reply("1.1", "42", nil, 12),
		reply("1.2", "wrong", nil, 8),
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Body) != "42" {
		t.Fatalf("majority lost: got %q", got.Body)
	}
	if a.Name() != "majority" {
		t.Fatalf("name = %q", a.Name())
	}
}

func TestMajorityTieFallsBackToRandom(t *testing.T) {
	rng := xrand.New(10)
	a := Majority{}
	counts := map[string]int{}
	const n = 6000
	for i := 0; i < n; i++ {
		got, err := a.Adjudicate([]Reply{
			reply("1.0", "x", nil, 10),
			reply("1.1", "y", nil, 20),
		}, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[string(got.Body)]++
	}
	if counts["x"] < n*4/10 || counts["x"] > n*6/10 {
		t.Fatalf("tie-break distribution %v not ~uniform", counts)
	}
}

func TestMajorityErrors(t *testing.T) {
	rng := xrand.New(11)
	a := Majority{}
	if _, err := a.Adjudicate(nil, rng); !errors.Is(err, ErrNoResponses) {
		t.Fatalf("empty: %v", err)
	}
	_, err := a.Adjudicate([]Reply{reply("1.0", "", errBoom, 1)}, rng)
	if !errors.Is(err, ErrAllEvident) {
		t.Fatalf("all evident: %v", err)
	}
}

func TestFastestValidPicksLowestLatency(t *testing.T) {
	rng := xrand.New(12)
	a := FastestValid{}
	got, err := a.Adjudicate([]Reply{
		reply("1.0", "slow", nil, 300),
		reply("1.1", "fast", nil, 20),
		reply("1.2", "", errBoom, 1), // fastest but evident
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got.Release != "1.1" {
		t.Fatalf("picked %s, want 1.1", got.Release)
	}
	if a.Name() != "fastest-valid" {
		t.Fatalf("name = %q", a.Name())
	}
}

func TestFastestValidTieBreaksByName(t *testing.T) {
	rng := xrand.New(13)
	a := FastestValid{}
	got, err := a.Adjudicate([]Reply{
		reply("1.1", "b", nil, 20),
		reply("1.0", "a", nil, 20),
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got.Release != "1.0" {
		t.Fatalf("tie broke to %s, want 1.0", got.Release)
	}
}

func TestFastestValidErrors(t *testing.T) {
	rng := xrand.New(14)
	a := FastestValid{}
	if _, err := a.Adjudicate(nil, rng); !errors.Is(err, ErrNoResponses) {
		t.Fatalf("empty: %v", err)
	}
	if _, err := a.Adjudicate([]Reply{reply("1.0", "", errBoom, 1)}, rng); !errors.Is(err, ErrAllEvident) {
		t.Fatalf("all evident: %v", err)
	}
}

func TestPreferredReturnsNamedRelease(t *testing.T) {
	rng := xrand.New(15)
	a := Preferred{Release: "1.0"}
	got, err := a.Adjudicate([]Reply{
		reply("1.1", "new", nil, 5),
		reply("1.0", "old", nil, 50),
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got.Release != "1.0" {
		t.Fatalf("picked %s, want preferred 1.0", got.Release)
	}
	if a.Name() != "preferred(1.0)" {
		t.Fatalf("name = %q", a.Name())
	}
}

func TestPreferredFallsBackWhenPreferredFails(t *testing.T) {
	rng := xrand.New(16)
	a := Preferred{Release: "1.0", Fallback: FastestValid{}}
	got, err := a.Adjudicate([]Reply{
		reply("1.0", "", errBoom, 5),
		reply("1.1", "new", nil, 50),
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if got.Release != "1.1" {
		t.Fatalf("fallback picked %s, want 1.1", got.Release)
	}
	// Nil fallback defaults to RandomValid.
	b := Preferred{Release: "gone"}
	got, err = b.Adjudicate([]Reply{reply("1.1", "new", nil, 50)}, rng)
	if err != nil || got.Release != "1.1" {
		t.Fatalf("nil-fallback: %v %v", got, err)
	}
}

func TestAdjudicatorsDoNotMutateInput(t *testing.T) {
	rng := xrand.New(17)
	in := []Reply{
		reply("1.2", "c", nil, 30),
		reply("1.0", "a", nil, 10),
		reply("1.1", "b", nil, 20),
	}
	for _, a := range []Adjudicator{RandomValid{}, Majority{}, FastestValid{}, Preferred{Release: "1.0"}} {
		if _, err := a.Adjudicate(in, rng); err != nil {
			t.Fatal(err)
		}
		if in[0].Release != "1.2" || in[1].Release != "1.0" || in[2].Release != "1.1" {
			t.Fatalf("%s mutated the replies slice", a.Name())
		}
	}
}
