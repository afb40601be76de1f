package monitor_test

import (
	"encoding/json"
	"fmt"
	"runtime"
	"testing"
	"time"

	"wsupgrade/internal/monitor"
)

// lineChecker is a sink that checks each record line as it is written
// and keeps none of it.
type lineChecker struct {
	t     *testing.T
	lines int
	want  func(n int, rec monitor.Record) error
}

func (c *lineChecker) Write(p []byte) (int, error) {
	var rec monitor.Record
	if err := json.Unmarshal(p, &rec); err != nil {
		c.t.Errorf("sink line %d: %v", c.lines, err)
	} else if err := c.want(c.lines, rec); err != nil {
		c.t.Errorf("sink line %d: %v", c.lines, err)
	}
	c.lines++
	return len(p), nil
}

// TestEventLogRetainsNoPayload pins the monitor's memory contract: Note
// folds a demand into the aggregates, writes it to the sink, and keeps
// nothing of the caller's record. 5 000 demands, each carrying a fresh
// 1 KB operation name and observation slice, which the caller drops
// once Note returns, do not grow the heap (kept, they would be over
// 5 MB), and each sink line is the demand as it was noted.
func TestEventLogRetainsNoPayload(t *testing.T) {
	const demands, nameSize = 5000, 1 << 10
	operation := func(i int) string { return fmt.Sprintf("%0*d", nameSize, i) }
	sink := &lineChecker{t: t, want: func(n int, rec monitor.Record) error {
		if rec.Operation != operation(n) || len(rec.Releases) != 2 || rec.Releases[1].Latency != time.Duration(n) {
			return fmt.Errorf("record %.40q… with %d releases, want demand %d as noted", rec.Operation, len(rec.Releases), n)
		}
		return nil
	}}
	m := monitor.New(monitor.WithSink(sink))
	ids := [2]monitor.ReleaseID{m.Intern("1.0"), m.Intern("1.1")}
	note := func(i int) {
		m.Note(monitor.Record{
			Time:      time.Now(),
			Operation: operation(i),
			Winner:    "1.0",
			Releases: []monitor.Observation{
				{Release: "1.0", ID: ids[0], Responded: true, Judged: true, Latency: time.Duration(i)},
				{Release: "1.1", ID: ids[1], Responded: true, Judged: true, Latency: time.Duration(i)},
			},
		})
	}

	// A first demand gives each release its accumulator, so the measured
	// ones can only grow the heap by what the monitor keeps of them.
	note(0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 1; i <= demands; i++ {
		note(i)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew >= 1<<20 {
		t.Errorf("%d demands grew the heap by %d bytes; the monitor must keep none of them", demands, grew)
	}
	if err := m.Err(); err != nil {
		t.Fatal(err)
	}
	if sink.lines != demands+1 {
		t.Fatalf("sink took %d records, want %d", sink.lines, demands+1)
	}
	if st, err := m.Stats("1.1"); err != nil || st.Demands != demands+1 {
		t.Fatalf("stats %+v, %v: want %d demands", st, err, demands+1)
	}
}
