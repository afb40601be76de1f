package monitor

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/stats"
)

// noteSome drives a deterministic mixed workload into m and returns how
// many demands it recorded.
func noteSome(m *Monitor, n int) {
	for i := 0; i < n; i++ {
		joint := bayes.NeitherFails
		switch i % 5 {
		case 1:
			joint = bayes.BOnlyFails
		case 3:
			joint = bayes.BothFail
		}
		op := "add"
		if i%2 == 0 {
			op = "operation1"
		}
		m.Note(Record{
			Time:      time.Unix(int64(i), 0),
			Operation: op,
			Releases: []Observation{
				{Release: "1.0", Responded: true, Latency: time.Duration(10+i) * time.Millisecond},
				{Release: "2.0", Responded: i%7 != 0, Evident: i%7 == 0, Judged: true, Failed: i%5 == 1,
					Latency: time.Duration(12+i) * time.Millisecond},
			},
			Winner: "1.0",
			Joint:  joint,
		})
	}
}

// A restored monitor must agree with the original on every aggregation
// surface the confidence engine and the admin API read.
func TestCampaignStateRestoreRoundTrip(t *testing.T) {
	live := New()
	noteSome(live, 137)

	restoredM := New()
	if err := restoredM.Restore(live.CampaignState()); err != nil {
		t.Fatalf("Restore: %v", err)
	}

	if got, want := restoredM.Joint(), live.Joint(); got != want {
		t.Fatalf("Joint after restore: got %+v want %+v", got, want)
	}
	for _, op := range []string{"add", "operation1", "never-seen"} {
		if got, want := restoredM.JointFor(op), live.JointFor(op); got != want {
			t.Fatalf("JointFor(%q) after restore: got %+v want %+v", op, got, want)
		}
	}
	for _, rel := range []string{"1.0", "2.0"} {
		got, err := restoredM.Stats(rel)
		if err != nil {
			t.Fatalf("Stats(%q): %v", rel, err)
		}
		want, err := live.Stats(rel)
		if err != nil {
			t.Fatalf("Stats(%q): %v", rel, err)
		}
		if got != want {
			t.Fatalf("Stats(%q) after restore: got %+v want %+v", rel, got, want)
		}
	}
}

// Restoring and then continuing to observe must equal having observed
// the whole history live — the recovery invariant the journal relies on.
func TestRestoreThenObserveMatchesUninterrupted(t *testing.T) {
	full := New()
	noteSome(full, 200)

	crashed := New()
	noteSome(crashed, 120) // pre-crash traffic
	resumed := New()
	if err := resumed.Restore(crashed.CampaignState()); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// Replay the post-crash tail. noteSome is deterministic in i, so
	// drive the same demands 120..199 by re-running and skipping.
	for i := 120; i < 200; i++ {
		joint := bayes.NeitherFails
		switch i % 5 {
		case 1:
			joint = bayes.BOnlyFails
		case 3:
			joint = bayes.BothFail
		}
		op := "add"
		if i%2 == 0 {
			op = "operation1"
		}
		resumed.Note(Record{
			Time:      time.Unix(int64(i), 0),
			Operation: op,
			Releases: []Observation{
				{Release: "1.0", Responded: true, Latency: time.Duration(10+i) * time.Millisecond},
				{Release: "2.0", Responded: i%7 != 0, Evident: i%7 == 0, Judged: true, Failed: i%5 == 1,
					Latency: time.Duration(12+i) * time.Millisecond},
			},
			Winner: "1.0",
			Joint:  joint,
		})
	}

	if got, want := resumed.Joint(), full.Joint(); got != want {
		t.Fatalf("Joint: resumed %+v, uninterrupted %+v", got, want)
	}
	for _, rel := range []string{"1.0", "2.0"} {
		got, _ := resumed.Stats(rel)
		want, _ := full.Stats(rel)
		// The integer counters must match exactly; the mean latency is a
		// Welford merge whose float rounding depends on partition order,
		// so it gets a nanosecond-scale tolerance.
		meanDelta := got.MeanLatency - want.MeanLatency
		if meanDelta < 0 {
			meanDelta = -meanDelta
		}
		got.MeanLatency, want.MeanLatency = 0, 0
		if got != want || meanDelta > time.Microsecond {
			t.Fatalf("Stats(%q): resumed %+v, uninterrupted %+v (mean delta %v)", rel, got, want, meanDelta)
		}
	}
}

func TestCampaignStateDeterministicOrder(t *testing.T) {
	m := New()
	noteSome(m, 30)
	a := m.CampaignState()
	b := m.CampaignState()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two snapshots of an idle monitor differ:\n%+v\n%+v", a, b)
	}
	for i := 1; i < len(a.Releases); i++ {
		if a.Releases[i-1].Release >= a.Releases[i].Release {
			t.Fatalf("releases not sorted: %v", a.Releases)
		}
	}
}

func TestRestoreRejectsCorruptState(t *testing.T) {
	cases := []CampaignState{
		{Joint: bayes.JointCounts{N: -1}},
		{Joint: bayes.JointCounts{N: 2, Both: 1, AOnly: 1, BOnly: 1}},
		{PerOp: map[string]bayes.JointCounts{"add": {N: 1, Both: 2}}},
		{Releases: []ReleaseCampaignStats{{Release: ""}}},
		{Releases: []ReleaseCampaignStats{{Release: "1.0", Demands: 1, Responses: 2}}},
		{Releases: []ReleaseCampaignStats{{Release: "1.0", Demands: 5, Responses: 3}}}, // latency.N mismatch
		{Releases: []ReleaseCampaignStats{{Release: "1.0", Demands: 1, Responses: 1, Latency: stats.SummaryState{N: 1},
			LatencyBins: map[int]int{latencyBinCount: 1}}}}, // bin out of range
		{Releases: []ReleaseCampaignStats{{Release: "1.0", Demands: 1, Responses: 1, Latency: stats.SummaryState{N: 1},
			LatencyBins: map[int]int{-1: 1}}}},
		{Releases: []ReleaseCampaignStats{{Release: "1.0", Demands: 1, Responses: 1, Latency: stats.SummaryState{N: 1},
			LatencyBins: map[int]int{7: -1}}}},
		{Releases: []ReleaseCampaignStats{{Release: "1.0", Demands: 2, Responses: 2, Latency: stats.SummaryState{N: 2},
			Overflow: 1, LatencyBins: map[int]int{7: 2}}}}, // more binned than responded
	}
	for i, st := range cases {
		m := New()
		if err := m.Restore(st); err == nil {
			t.Errorf("case %d: Restore accepted corrupt state %+v", i, st)
		}
		// The failed restore must leave the monitor untouched.
		if got := m.Joint(); got != (bayes.JointCounts{}) {
			t.Errorf("case %d: failed Restore mutated joint: %+v", i, got)
		}
		if rels := m.Releases(); len(rels) != 0 {
			t.Errorf("case %d: failed Restore interned releases: %v", i, rels)
		}
	}
}

// A restored campaign keeps counting the slow responses it saw before the
// restart, through the journal's JSON; a journal written before the
// snapshot carried latency bins restores as it used to, counting only
// the responses that never came.
func TestRestoreKeepsSlowResponses(t *testing.T) {
	live := New()
	noteLatency(live, "1.0", 2*time.Second)
	noteLatency(live, "1.0", 2*time.Minute) // over-range
	noteLatency(live, "1.0", 5*time.Millisecond)
	live.Note(Record{Releases: []Observation{{Release: "1.0"}}})
	raw, err := json.Marshal(live.CampaignState())
	if err != nil {
		t.Fatal(err)
	}
	var st CampaignState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.Restore(st); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	for _, threshold := range []time.Duration{0, time.Millisecond, time.Second, time.Minute, 3 * time.Minute} {
		want, _, _ := live.SlowResponses("1.0", threshold)
		got, demands, err := restored.SlowResponses("1.0", threshold)
		if err != nil || got != want || demands != 4 {
			t.Errorf("SlowResponses(%v) after restore = %d of %d (%v), live %d of 4", threshold, got, demands, err, want)
		}
	}

	st.Releases[0].LatencyBins = nil // an older journal's snapshot
	older := New()
	if err := older.Restore(st); err != nil {
		t.Fatalf("Restore without latency bins: %v", err)
	}
	if slow, demands, _ := older.SlowResponses("1.0", time.Second); slow != 2 || demands != 4 {
		t.Errorf("SlowResponses(1s) without latency bins = %d of %d, want 2 of 4 (no response, over-range)", slow, demands)
	}
}
