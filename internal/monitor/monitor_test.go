package monitor

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"wsupgrade/internal/bayes"
)

func obs(release string, responded, evident, failed bool, latency time.Duration) Observation {
	return Observation{
		Release:   release,
		Responded: responded,
		Evident:   evident,
		Judged:    true,
		Failed:    failed,
		Latency:   latency,
	}
}

func TestStatsAggregation(t *testing.T) {
	m := New()
	m.Note(Record{
		Operation: "operation1",
		Releases: []Observation{
			obs("1.0", true, false, false, 100*time.Millisecond),
			obs("1.1", true, true, true, 50*time.Millisecond),
		},
		Winner: "1.0",
		Joint:  bayes.BOnlyFails,
	})
	m.Note(Record{
		Operation: "operation1",
		Releases: []Observation{
			obs("1.0", true, false, false, 300*time.Millisecond),
			{Release: "1.1", Responded: false, Evident: true, Latency: 0},
		},
		Winner: "1.0",
		Joint:  bayes.BOnlyFails,
	})

	s10, err := m.Stats("1.0")
	if err != nil {
		t.Fatal(err)
	}
	if s10.Demands != 2 || s10.Responses != 2 || s10.Evident != 0 || s10.JudgedFailures != 0 {
		t.Fatalf("1.0 stats = %+v", s10)
	}
	if s10.Availability() != 1 {
		t.Fatalf("1.0 availability = %v", s10.Availability())
	}
	if s10.MeanLatency != 200*time.Millisecond || s10.MaxLatency != 300*time.Millisecond {
		t.Fatalf("1.0 latency = %v / %v", s10.MeanLatency, s10.MaxLatency)
	}

	s11, err := m.Stats("1.1")
	if err != nil {
		t.Fatal(err)
	}
	if s11.Demands != 2 || s11.Responses != 1 || s11.Evident != 2 || s11.JudgedFailures != 1 {
		t.Fatalf("1.1 stats = %+v", s11)
	}
	if got := s11.Availability(); got != 0.5 {
		t.Fatalf("1.1 availability = %v", got)
	}

	joint := m.Joint()
	if joint.N != 2 || joint.BOnly != 2 {
		t.Fatalf("joint = %+v", joint)
	}
}

func TestUnknownRelease(t *testing.T) {
	m := New()
	if _, err := m.Stats("ghost"); !errors.Is(err, ErrUnknownRelease) {
		t.Fatalf("err = %v", err)
	}
	if s := (ReleaseStats{}); s.Availability() != 0 {
		t.Fatal("empty stats availability should be 0")
	}
}

func TestJointOnlyCountedWhenSet(t *testing.T) {
	m := New()
	m.Note(Record{Releases: []Observation{obs("1.0", true, false, false, 0)}})
	if m.Joint().N != 0 {
		t.Fatal("zero joint outcome was counted")
	}
}

func TestSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	m := New(WithSink(&buf))
	m.Note(Record{
		Operation: "add",
		Releases:  []Observation{obs("1.0", true, false, false, time.Millisecond)},
		Winner:    "1.0",
		Joint:     bayes.NeitherFails,
	})
	m.Note(Record{Operation: "add"})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink lines = %d", len(lines))
	}
	var rec Record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Operation != "add" || rec.Winner != "1.0" || len(rec.Releases) != 1 {
		t.Fatalf("decoded record = %+v", rec)
	}
	if m.Err() != nil {
		t.Fatal(m.Err())
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestSinkErrorRemembered(t *testing.T) {
	m := New(WithSink(failingWriter{}))
	m.Note(Record{Operation: "x", Joint: bayes.NeitherFails})
	if m.Err() == nil {
		t.Fatal("sink error lost")
	}
	// The aggregates go on counting.
	if m.Joint().N != 1 {
		t.Fatal("demand not counted after a sink error")
	}
}

func TestReleasesList(t *testing.T) {
	m := New()
	m.Note(Record{Releases: []Observation{obs("1.0", true, false, false, 0), obs("1.1", true, false, false, 0)}})
	rels := m.Releases()
	if len(rels) != 2 {
		t.Fatalf("releases = %v", rels)
	}
}

func TestJointForPerOperation(t *testing.T) {
	m := New()
	m.Note(Record{
		Operation: "add",
		Releases:  []Observation{obs("1.0", true, false, false, 0)},
		Joint:     bayes.BOnlyFails,
	})
	m.Note(Record{
		Operation: "operation1",
		Releases:  []Observation{obs("1.0", true, false, false, 0)},
		Joint:     bayes.NeitherFails,
	})
	if got := m.JointFor("add"); got.N != 1 || got.BOnly != 1 {
		t.Fatalf("JointFor(add) = %+v", got)
	}
	if got := m.JointFor("operation1"); got.N != 1 || got.BOnly != 0 {
		t.Fatalf("JointFor(operation1) = %+v", got)
	}
	if got := m.JointFor("ghost"); got.N != 0 {
		t.Fatalf("JointFor(ghost) = %+v", got)
	}
	if got := m.Joint(); got.N != 2 {
		t.Fatalf("pooled joint = %+v", got)
	}
}

func TestSlowResponses(t *testing.T) {
	m := New()
	for _, lat := range []time.Duration{
		10 * time.Millisecond, 50 * time.Millisecond, 2 * time.Second,
	} {
		m.Note(Record{Releases: []Observation{obs("1.0", true, false, false, lat)}})
	}
	// One demand with no response at all.
	m.Note(Record{Releases: []Observation{{Release: "1.0", Responded: false, Evident: true}}})

	slow, demands, err := m.SlowResponses("1.0", 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if demands != 4 {
		t.Fatalf("demands = %d", demands)
	}
	// The 2 s response and the no-response count as slow.
	if slow != 2 {
		t.Fatalf("slow = %d, want 2", slow)
	}
	slow, _, err = m.SlowResponses("1.0", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if slow != 1 { // only the no-response remains
		t.Fatalf("slow at 10s = %d, want 1", slow)
	}
	if _, _, err := m.SlowResponses("ghost", time.Second); !errors.Is(err, ErrUnknownRelease) {
		t.Fatalf("ghost: %v", err)
	}
}

func TestConcurrentNotes(t *testing.T) {
	m := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 250; i++ {
				m.Note(Record{
					Releases: []Observation{obs("1.0", true, false, false, time.Millisecond)},
					Joint:    bayes.NeitherFails,
				})
			}
		}()
	}
	wg.Wait()
	s, err := m.Stats("1.0")
	if err != nil {
		t.Fatal(err)
	}
	if s.Demands != 2000 {
		t.Fatalf("demands = %d, want 2000", s.Demands)
	}
	if m.Joint().N != 2000 {
		t.Fatalf("joint N = %d", m.Joint().N)
	}
}
