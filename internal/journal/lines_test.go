package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/monitor"
)

// A line writer writes each AppendJSON value as one JSON line, in order,
// and Close waits for them.
func TestSinkJSONL(t *testing.T) {
	var buf bytes.Buffer
	w := NewLineWriter(&buf)
	w.AppendJSON(monitor.Record{
		Operation: "add",
		Releases:  []monitor.Observation{{Release: "1.0", Responded: true, Latency: time.Millisecond}},
		Winner:    "1.0",
		Joint:     bayes.NeitherFails,
	})
	w.AppendJSON(monitor.Record{Operation: "sub"})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2: %q", len(lines), buf.String())
	}
	var rec monitor.Record
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Operation != "add" || rec.Winner != "1.0" || len(rec.Releases) != 1 || rec.Releases[0].Latency != time.Millisecond {
		t.Fatalf("decoded record = %+v", rec)
	}
}

var errDiskFull = errors.New("disk full")

// failingWriter refuses every write and counts the attempts.
type failingWriter struct{ writes int }

func (f *failingWriter) Write([]byte) (int, error) { f.writes++; return 0, errDiskFull }

// A write error is sticky and reported by Close, and later lines are
// still attempted.
func TestSinkErrorRemembered(t *testing.T) {
	out := &failingWriter{}
	w := NewLineWriter(out)
	w.AppendJSON(monitor.Record{Operation: "x"})
	w.AppendJSON(monitor.Record{Operation: "y"})
	if err := w.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close = %v, want the write error", err)
	}
	if out.writes != 2 {
		t.Fatalf("%d writes attempted, want 2", out.writes)
	}
}

// gatedWriter blocks every Write until open is closed, then keeps each
// line it is handed.
type gatedWriter struct {
	open   chan struct{}
	writes [][]byte
}

func (g *gatedWriter) Write(p []byte) (int, error) {
	<-g.open
	g.writes = append(g.writes, bytes.Clone(p))
	return len(p), nil
}

// TestSinkConcurrent: concurrent appenders against a destination that
// blocks past the queue's slots. Every line is written exactly once or
// counted as dropped, each in a Write of its own (no line tears into
// another), each appender's lines in its order, and Close reports the
// drops.
func TestSinkConcurrent(t *testing.T) {
	const workers = 8
	const perWorker = 200 // 1 600 lines: more than the queue and one batch hold
	type line struct{ W, I int }
	out := &gatedWriter{open: make(chan struct{})}
	w := NewLineWriter(out)
	var wg sync.WaitGroup
	for n := 0; n < workers; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				w.AppendJSON(line{n, i})
			}
		}()
	}
	wg.Wait() // every append returned while the destination was blocked
	dropped := w.drops.Load()
	close(out.open)
	err := w.Close()
	if dropped == 0 {
		t.Fatal("no line dropped: the destination was not blocked past the queue")
	}
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d appends dropped", dropped)) {
		t.Fatalf("Close = %v, want %d drops reported", err, dropped)
	}
	if got := len(out.writes) + int(dropped); got != workers*perWorker {
		t.Fatalf("%d lines written + %d dropped = %d, want %d", len(out.writes), dropped, got, workers*perWorker)
	}
	last := make([]int, workers)
	for n := range last {
		last[n] = -1
	}
	for _, p := range out.writes {
		var l line
		if bytes.IndexByte(p, '\n') != len(p)-1 {
			t.Fatalf("write %q is not one whole line", p)
		}
		if err := json.Unmarshal(p, &l); err != nil {
			t.Fatalf("torn line %q: %v", p, err)
		}
		// One appender's lines reach the destination in its order, each once.
		if l.I <= last[l.W] {
			t.Fatalf("appender %d's line %d arrived after its line %d", l.W, l.I, last[l.W])
		}
		last[l.W] = l.I
	}
}
