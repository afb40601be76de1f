package monitor_test

import (
	"bytes"
	"testing"
	"time"

	"wsupgrade/internal/monitor"
	"wsupgrade/internal/pool"
)

// TestLoggedBodySurvivesBufferRecycle is the alias-safety regression test
// for the buffer ownership protocol: an observation recorded with a Body
// that aliases a pooled reply buffer must stay intact in the event log
// after the dispatch layer recycles the buffer and the pool hands its
// backing array to a later request that overwrites it. The monitor's
// copy-on-record boundary (logRing.add) is what makes this hold.
func TestLoggedBodySurvivesBufferRecycle(t *testing.T) {
	m := monitor.New(monitor.WithLogCapacity(8))

	var bufs pool.BufPool
	b := bufs.Get()
	b.B = append(b.B, "<GetQuoteResponse><Price>42.17</Price></GetQuoteResponse>"...)
	want := append([]byte(nil), b.B...)

	m.Note(monitor.Record{
		Time:      time.Now(),
		Operation: "GetQuote",
		Winner:    "v1",
		Releases: []monitor.Observation{{
			Release:   "v1",
			Responded: true,
			Judged:    true,
			Latency:   3 * time.Millisecond,
			Body:      b.B, // aliases the pooled buffer
		}},
	})

	// The dispatcher's completion: the reply buffer goes back to the pool.
	b.Release()

	// A later request draws the same backing array and overwrites it.
	b2 := bufs.Get()
	b2.B = b2.B[:cap(b2.B)]
	for i := range b2.B {
		b2.B[i] = 'X'
	}

	log := m.Log()
	if len(log) != 1 || len(log[0].Releases) != 1 {
		t.Fatalf("log shape: %d records", len(log))
	}
	if got := log[0].Releases[0].Body; !bytes.Equal(got, want) {
		t.Fatalf("logged body corrupted by buffer recycle:\n got %q\nwant %q", got, want)
	}
	b2.Release()
}

// TestLoggedBodySurvivesRingLap asserts the second half of the contract:
// a snapshot taken from the log owns its body bytes, so later records
// lapping the ring (which overwrite the slot's reused backing in place)
// do not corrupt an earlier snapshot.
func TestLoggedBodySurvivesRingLap(t *testing.T) {
	m := monitor.New(monitor.WithLogCapacity(1))

	m.Note(monitor.Record{
		Operation: "GetQuote",
		Releases: []monitor.Observation{{
			Release:   "v1",
			Responded: true,
			Body:      []byte("first body"),
		}},
	})
	snap := m.Log()

	// Lap the one-slot ring: the slot's backing is overwritten in place.
	m.Note(monitor.Record{
		Operation: "GetQuote",
		Releases: []monitor.Observation{{
			Release:   "v1",
			Responded: true,
			Body:      []byte("second, rather longer body"),
		}},
	})

	if got := string(snap[0].Releases[0].Body); got != "first body" {
		t.Fatalf("snapshot body corrupted by ring lap: %q", got)
	}
	if got := string(m.Log()[0].Releases[0].Body); got != "second, rather longer body" {
		t.Fatalf("post-lap log body: %q", got)
	}
}

// TestLoggedBodyIsBoundedPrefix pins the ring's memory contract: a slot
// keeps the first LogBodyPrefix bytes of each body and the full length,
// its backing never grows past the prefix however large the replies or
// however many laps, a body within the prefix is kept whole, and a
// snapshot still owns its copies.
func TestLoggedBodyIsBoundedPrefix(t *testing.T) {
	const capacity = 4
	m := monitor.New(monitor.WithLogCapacity(capacity))

	body := func(n int, seed byte) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = seed + byte(i%61)
		}
		return b
	}
	// Sizes straddle the prefix, in an order that makes a slot's backing
	// grow from small to the bound and then see smaller bodies again.
	sizes := []int{300, monitor.LogBodyPrefix - 1, monitor.LogBodyPrefix, monitor.LogBodyPrefix + 1, 70 << 10, 5000, 12}
	var snaps [][]monitor.Record
	var sent [][]byte
	for lap := 0; lap < 3; lap++ {
		for i, n := range sizes {
			old, new := body(n, byte(lap)), body(n+lap, byte(i))
			m.Note(monitor.Record{
				Operation: "quote",
				Releases: []monitor.Observation{
					{Release: "1.0", Responded: true, Body: old},
					{Release: "1.1", Responded: true, Body: new},
				},
			})
			log := m.Log()
			last := log[len(log)-1]
			for j, want := range [][]byte{old, new} {
				obs := last.Releases[j]
				if obs.BodyLen != len(want) {
					t.Fatalf("lap %d size %d release %d: BodyLen = %d, want %d", lap, n, j, obs.BodyLen, len(want))
				}
				keep := want[:min(len(want), monitor.LogBodyPrefix)]
				if !bytes.Equal(obs.Body, keep) {
					t.Fatalf("lap %d size %d release %d: logged body is not the %d-byte prefix (len %d)", lap, n, j, len(keep), len(obs.Body))
				}
			}
			snaps, sent = append(snaps, log), append(sent, old)
			// The caller recycles its buffers the moment Note returns.
			for k := range old {
				old[k] = 'X'
			}
			for k := range new {
				new[k] = 'Y'
			}
		}
		for _, c := range m.LogBackingCaps() {
			if c > monitor.LogBodyPrefix {
				t.Fatalf("after lap %d a slot's body backing has cap %d, over the %d-byte prefix", lap, c, monitor.LogBodyPrefix)
			}
		}
	}
	// Every snapshot taken on the way still reads what was logged then:
	// neither ring laps nor the callers' overwrites reached its copies.
	for i, log := range snaps {
		got := log[len(log)-1].Releases[0].Body
		if len(got) == 0 || bytes.IndexByte(got, 'X') >= 0 {
			t.Fatalf("snapshot %d was corrupted after it was taken (len %d)", i, len(got))
		}
		if want := min(len(sent[i]), monitor.LogBodyPrefix); len(got) != want {
			t.Fatalf("snapshot %d body length %d, want %d", i, len(got), want)
		}
	}
}
