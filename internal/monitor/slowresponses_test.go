package monitor

import (
	"math"
	"testing"
	"time"
)

// edgeDur is the lower edge of latency bin i rounded up to the
// nanosecond: a latency at the very start of bin i.
func edgeDur(i int) time.Duration {
	return time.Duration(math.Ceil(latencyEdges[i] * 1e9))
}

// noteLatency records one responded demand with the given latency.
func noteLatency(m *Monitor, release string, d time.Duration) {
	m.Note(Record{Releases: []Observation{{
		Release: release, Responded: true, Latency: d,
	}}})
}

// TestSlowResponsesBoundary is the regression for the boundary math:
// with a threshold exactly on a bin's lower edge, that bin is entirely
// slow and must be counted. The pre-fix int(t/w)+1 skipped it,
// undercounting the §6.1 responsiveness numerator for every
// boundary-aligned threshold.
func TestSlowResponsesBoundary(t *testing.T) {
	m := New()
	// One response early in bin 1000, one comfortably fast in bin 10, one
	// comfortably slow in bin 1400.
	noteLatency(m, "1.0", edgeDur(1000))
	noteLatency(m, "1.0", edgeDur(10))
	noteLatency(m, "1.0", edgeDur(1400))

	// Threshold on the bin-1000 edge as seconds see it: bins 1000+ are at
	// or past it, so both the bin-1000 and the bin-1400 response are slow.
	slow, demands, err := m.SlowResponses("1.0", time.Duration(latencyEdges[1000]*1e9))
	if err != nil {
		t.Fatal(err)
	}
	if demands != 3 {
		t.Fatalf("demands = %d, want 3", demands)
	}
	if slow != 2 {
		t.Fatalf("slow = %d at boundary threshold %v, want 2 (boundary bin skipped?)", slow, edgeDur(1000))
	}

	// Mid-bin threshold: bin 1000 cannot be split, so only bin 1400
	// counts — the documented conservative rounding.
	slow, _, err = m.SlowResponses("1.0", (edgeDur(1000)+edgeDur(1001))/2)
	if err != nil {
		t.Fatal(err)
	}
	if slow != 1 {
		t.Fatalf("slow = %d at mid-bin threshold, want 1", slow)
	}

	// Threshold zero: every response is in a bin at or above it.
	slow, _, err = m.SlowResponses("1.0", 0)
	if err != nil {
		t.Fatal(err)
	}
	if slow != 3 {
		t.Fatalf("slow = %d at zero threshold, want 3", slow)
	}
}

// TestSlowResponsesResolvesLAN is the regression for the histogram's
// resolution: its 2048 bins used to be 29.3 ms wide, so every response
// under 29 ms read as fast whatever the threshold, and the §6.1
// confidence of every LAN-speed release was over-stated.
func TestSlowResponsesResolvesLAN(t *testing.T) {
	m := New()
	noteLatency(m, "1.0", time.Millisecond)
	noteLatency(m, "1.0", 20*time.Millisecond)
	for _, tc := range []struct {
		threshold time.Duration
		want      int
	}{{10 * time.Millisecond, 1}, {500 * time.Microsecond, 2}, {21 * time.Millisecond, 0}} {
		slow, _, err := m.SlowResponses("1.0", tc.threshold)
		if err != nil {
			t.Fatal(err)
		}
		if slow != tc.want {
			t.Errorf("slow = %d against %v, want %d", slow, tc.threshold, tc.want)
		}
	}
	// Each bin is ≈ 0.8 % wide: a threshold 1 % under a response counts it.
	if slow, _, _ := m.SlowResponses("1.0", 19800*time.Microsecond); slow != 1 {
		t.Errorf("slow = %d against 19.8ms, want 1 (the 20ms response)", slow)
	}
}

// TestSlowResponsesOverflow is the regression for over-range latencies:
// no bin holds observations at or beyond the histogram range, and a
// threshold at or beyond the range used to report zero slow responses
// for them.
func TestSlowResponsesOverflow(t *testing.T) {
	m := New()
	noteLatency(m, "1.0", 2*latencyRange) // 120 s, over-range
	noteLatency(m, "1.0", latencyRange)   // exactly the range edge: also over-range
	noteLatency(m, "1.0", time.Second)    // comfortably in range
	m.Note(Record{Releases: []Observation{{Release: "1.0", Responded: false}}})

	// Threshold beyond the histogram range: only the over-range responses
	// (and the non-response) can be slow.
	slow, demands, err := m.SlowResponses("1.0", 90*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if demands != 4 {
		t.Fatalf("demands = %d, want 4", demands)
	}
	if slow != 3 {
		t.Fatalf("slow = %d for over-range threshold, want 3 (2 over-range + 1 no-response)", slow)
	}

	// Exactly at the range: same, via the overflow count.
	slow, _, err = m.SlowResponses("1.0", latencyRange)
	if err != nil {
		t.Fatal(err)
	}
	if slow != 3 {
		t.Fatalf("slow = %d at range threshold, want 3", slow)
	}

	// An in-range threshold counts every over-range response once.
	slow, _, err = m.SlowResponses("1.0", 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if slow != 3 {
		t.Fatalf("slow = %d at 30s threshold, want 3", slow)
	}

	// A threshold beyond even the slowest observed response: no response
	// was slow, over-range or not — only the non-response counts.
	slow, _, err = m.SlowResponses("1.0", 150*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if slow != 1 {
		t.Fatalf("slow = %d beyond the max latency, want 1 (no-response only)", slow)
	}
}

// TestInternStableAndConcurrent pins the interning contract: IDs are
// dense, 1-based, stable across repeated interning, and resolvable
// concurrently.
func TestInternStableAndConcurrent(t *testing.T) {
	m := New()
	a := m.Intern("1.0")
	b := m.Intern("1.1")
	if a != 1 || b != 2 {
		t.Fatalf("ids = %d, %d; want dense 1-based 1, 2", a, b)
	}
	done := make(chan ReleaseID, 16)
	for i := 0; i < 16; i++ {
		go func() { done <- m.Intern("1.1") }()
	}
	for i := 0; i < 16; i++ {
		if got := <-done; got != b {
			t.Fatalf("concurrent Intern(1.1) = %d, want %d", got, b)
		}
	}
	if got := m.Intern("1.0"); got != a {
		t.Fatalf("re-Intern(1.0) = %d, want %d", got, a)
	}
}

// TestNoteRejectsForeignIDs feeds Note an observation whose ID does not
// belong to this monitor (or not to this release): it must aggregate by
// name instead of crediting the wrong release's slot.
func TestNoteRejectsForeignIDs(t *testing.T) {
	m := New()
	legit := m.Intern("1.0")
	// Bogus out-of-range ID and a mismatched in-range ID.
	m.Note(Record{Releases: []Observation{{Release: "1.1", ID: 57, Responded: true}}})
	m.Note(Record{Releases: []Observation{{Release: "1.2", ID: legit, Responded: true}}})

	for _, rel := range []string{"1.1", "1.2"} {
		st, err := m.Stats(rel)
		if err != nil {
			t.Fatalf("Stats(%s): %v", rel, err)
		}
		if st.Demands != 1 || st.Responses != 1 {
			t.Fatalf("Stats(%s) = %+v, want 1 demand, 1 response", rel, st)
		}
	}
	// The legit slot must stay empty: "1.0" was interned but never
	// observed, so it reports unknown rather than stolen observations.
	if st, err := m.Stats("1.0"); err == nil {
		t.Fatalf("Stats(1.0) = %+v, want ErrUnknownRelease", st)
	}
}

// TestNoteSteadyStateZeroAlloc holds the hot write path to zero
// allocations once the event-log ring has lapped, for both interned and
// by-name observations.
func TestNoteSteadyStateZeroAlloc(t *testing.T) {
	for _, interned := range []bool{true, false} {
		m := New(WithLogCapacity(64))
		rec := Record{
			Operation: "add",
			Releases: []Observation{
				{Release: "1.0", Responded: true, Latency: 3 * time.Millisecond},
				{Release: "1.1", Responded: true, Latency: 2 * time.Millisecond},
			},
		}
		if interned {
			for i := range rec.Releases {
				rec.Releases[i].ID = m.Intern(rec.Releases[i].Release)
			}
		}
		for i := 0; i < 80; i++ { // lap the ring
			m.Note(rec)
		}
		allocs := testing.AllocsPerRun(200, func() { m.Note(rec) })
		if allocs != 0 {
			t.Errorf("interned=%v: %v allocs per Note, want 0", interned, allocs)
		}
	}
}
