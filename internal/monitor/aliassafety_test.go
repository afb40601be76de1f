package monitor_test

import (
	"runtime"
	"testing"
	"time"

	"wsupgrade/internal/monitor"
)

// TestEventLogRetainsNoPayload pins the event log's memory contract: it
// records what the releases did — a verdict, a latency, the reply's
// length — and nothing of what they said. Two laps of a 64-record ring
// with 64 KB replies leave every logged Body nil and every BodyLen the
// length that was sent, the callers' overwriting their buffers the
// moment Note returns changes nothing, and the heap does not grow with
// the bytes that passed through (retained whole they would be 8 MB).
func TestEventLogRetainsNoPayload(t *testing.T) {
	const capacity, replySize = 64, 64 << 10
	m := monitor.New(monitor.WithLogCapacity(capacity))
	ids := [2]monitor.ReleaseID{m.Intern("1.0"), m.Intern("1.1")}

	// The two reply buffers are the caller's, reused for every demand as
	// a dispatcher's pooled buffers are.
	bufs := [2][]byte{make([]byte, replySize), make([]byte, replySize)}
	note := func(i int, withBodies bool) {
		rec := monitor.Record{
			Time:      time.Now(),
			Operation: "quote",
			Winner:    "1.0",
			Releases: []monitor.Observation{
				{Release: "1.0", ID: ids[0], Responded: true, Judged: true, Latency: time.Duration(i)},
				{Release: "1.1", ID: ids[1], Responded: true, Judged: true, Latency: time.Duration(i)},
			},
		}
		if withBodies {
			for j := range rec.Releases {
				body := bufs[j][:replySize-i-j]
				for k := range body {
					body[k] = byte('a' + j)
				}
				rec.Releases[j].Body = body
			}
		}
		m.Note(rec)
		for j := range bufs {
			for k := range bufs[j] {
				bufs[j][k] = 'X'
			}
		}
	}

	// A first lap without bodies gives each release its accumulator and
	// every slot its observation backing, so the measured laps can only
	// grow the heap by what they keep of the replies.
	for i := 0; i < capacity; i++ {
		note(i, false)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 2*capacity; i++ {
		note(i, true)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew >= 1<<20 {
		t.Errorf("two laps of %d-byte replies grew the heap by %d bytes; the log must keep none of them", replySize, grew)
	}

	log := m.Log()
	if len(log) != capacity {
		t.Fatalf("log holds %d records, want %d", len(log), capacity)
	}
	for n, rec := range log {
		i := capacity + n // the second lap survives, oldest first
		for j, obs := range rec.Releases {
			if obs.Body != nil {
				t.Fatalf("record %d release %d: logged Body holds %d bytes, want nil", n, j, len(obs.Body))
			}
			if want := replySize - i - j; obs.BodyLen != want {
				t.Fatalf("record %d release %d: BodyLen = %d, want %d", n, j, obs.BodyLen, want)
			}
			if obs.Latency != time.Duration(i) {
				t.Fatalf("record %d release %d: latency %d, want %d (log out of order)", n, j, obs.Latency, i)
			}
		}
	}
}

// TestLoggedObservationsAreCopies is what remains of the alias boundary:
// the ring copies a record's observation slice into slot-owned backing,
// so the caller may recycle its slice once Note returns, and a snapshot
// owns its copy, so a later record lapping the slot (which overwrites
// that backing in place) does not reach it.
func TestLoggedObservationsAreCopies(t *testing.T) {
	m := monitor.New(monitor.WithLogCapacity(1))
	scratch := []monitor.Observation{{Release: "v1", Responded: true, Latency: time.Millisecond}}

	m.Note(monitor.Record{Operation: "GetQuote", Releases: scratch})
	snap := m.Log()

	// The caller reuses its slice for the next demand, which laps the
	// one-slot ring.
	scratch[0] = monitor.Observation{Release: "v2", Responded: false, Latency: time.Second}
	if got := m.Log()[0].Releases[0]; got.Release != "v1" || got.Latency != time.Millisecond {
		t.Fatalf("logged observation changed with the caller's slice: %+v", got)
	}
	m.Note(monitor.Record{Operation: "GetQuote", Releases: scratch})

	if got := snap[0].Releases[0]; got.Release != "v1" || !got.Responded || got.Latency != time.Millisecond {
		t.Fatalf("snapshot changed by a ring lap: %+v", got)
	}
	if got := m.Log()[0].Releases[0]; got.Release != "v2" || got.Responded {
		t.Fatalf("post-lap log: %+v", got)
	}
}
