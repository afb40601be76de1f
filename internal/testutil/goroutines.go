// Package testutil holds shared test infrastructure. Its centerpiece is
// the goroutine-leak checker: a snapshot/diff over the runtime's
// goroutine stacks that Close-path tests use to prove retired engines,
// fleets and wire clients leave nothing running behind — no reader
// parked on a poisoned connection, no janitors outliving their client,
// no background collectors wedged on a drained channel.
package testutil

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

// GoroutineSnapshot is a point-in-time set of live goroutines, keyed by
// goroutine ID, each carrying its full stack for diagnostics.
type GoroutineSnapshot map[string]string

// ignorable reports stacks that are never leaks: runtime housekeeping,
// the testing framework itself, and the stack-capture goroutine.
func ignorable(stack string) bool {
	for _, marker := range []string{
		"testing.RunTests",
		"testing.(*T).Run",
		"testing.tRunner",
		"testing.runFuzzing",
		"testing.(*M).",
		"runtime.goexit0",
		"runtime.MHeap_Scavenger",
		"runtime.gc(",
		"runtime.bgsweep",
		"runtime.bgscavenge",
		"runtime.forcegchelper",
		"runtime.GC(",
		"runtime.ensureSigM",
		"runtime.ReadTrace",
		"runtime/trace.Start",
		"os/signal.signal_recv",
		"os/signal.loop",
		"signal.Notify",
		"testutil.SnapshotGoroutines",
	} {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}

// SnapshotGoroutines captures every live goroutine's stack, excluding
// runtime/testing housekeeping.
func SnapshotGoroutines() GoroutineSnapshot {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	snap := make(GoroutineSnapshot)
	for _, g := range strings.Split(string(buf), "\n\n") {
		if g == "" {
			continue
		}
		id := goroutineID(g)
		if id == "" || ignorable(g) {
			continue
		}
		snap[id] = g
	}
	return snap
}

// goroutineID extracts the "123" from "goroutine 123 [running]:".
func goroutineID(stack string) string {
	const prefix = "goroutine "
	if !strings.HasPrefix(stack, prefix) {
		return ""
	}
	rest := stack[len(prefix):]
	if i := strings.IndexByte(rest, ' '); i > 0 {
		return rest[:i]
	}
	return ""
}

// Leaked returns the goroutines live now that were not in the baseline.
func (base GoroutineSnapshot) Leaked() []string {
	now := SnapshotGoroutines()
	var leaks []string
	for id, stack := range now {
		if _, ok := base[id]; !ok {
			leaks = append(leaks, stack)
		}
	}
	sort.Strings(leaks)
	return leaks
}

// settleWait bounds how long CheckGoroutines waits for asynchronous
// teardown (drained dispatch collectors, cancellation callbacks) to
// finish before declaring a leak.
const settleWait = 3 * time.Second

// CheckGoroutines snapshots the live goroutines and registers a cleanup
// that fails the test if, once everything the test itself cleans up has
// run, new goroutines are still alive. Call it FIRST in the test body:
// t.Cleanup runs LIFO, so the check executes after every server/engine
// the test registered for closing has been closed. Teardown is given a
// grace period — goroutines that exit within settleWait are not leaks.
func CheckGoroutines(t testing.TB) {
	t.Helper()
	base := SnapshotGoroutines()
	t.Cleanup(func() {
		var leaks []string
		deadline := time.Now().Add(settleWait)
		for {
			leaks = base.Leaked()
			if len(leaks) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%d goroutine(s) leaked:\n", len(leaks))
		for _, g := range leaks {
			sb.WriteString("\n")
			sb.WriteString(g)
			sb.WriteString("\n")
		}
		t.Error(sb.String())
	})
}
