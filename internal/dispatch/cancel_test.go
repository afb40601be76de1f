package dispatch

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsupgrade/internal/testutil"
)

// The dispatch context cancels the transport's connections itself (it
// is wire's connWatcher), and that has one invariant the transport
// leans on: a connection taken back with UnwatchConn is never poisoned
// afterwards. The first tests hold it on the context alone; the rest
// run the schedules end to end, against a real wire.Client over pipes.

// markedConn records its poisoning and, through late, a poisoning that
// came after the connection had been taken back.
type markedConn struct {
	poisoned, taken, late atomic.Bool
}

func (m *markedConn) Poison() {
	if m.taken.Load() {
		m.late.Store(true)
	}
	m.poisoned.Store(true)
}

func TestCancelPoisonsWatchedConnsOnly(t *testing.T) {
	parent, hangUp := context.WithCancel(context.Background())
	c := acquireCallCtx(wallClock{}, parent, time.Hour)
	var held, returned, late markedConn
	if !c.WatchConn(&held) || !c.WatchConn(&returned) {
		t.Fatal("a live context refused a connection")
	}
	c.UnwatchConn(&returned)
	hangUp()
	<-c.Done()
	// Done closes before the poisoning: taking a connection back is what
	// waits for it.
	c.UnwatchConn(&held)
	if !held.poisoned.Load() {
		t.Fatal("cancellation did not poison the watched connection")
	}
	if returned.poisoned.Load() {
		t.Fatal("cancellation poisoned a connection that had been taken back")
	}
	if c.WatchConn(&late) {
		t.Fatal("a cancelled context accepted a connection")
	}
	if !c.release() {
		t.Fatal("consumer cancellation not flagged")
	}
}

// Cancellation racing the take-back, from the deadline timer and from
// the consumer alike: either the connection comes back poisoned, or it
// is never poisoned at all.
func TestCancelRacingUnwatchNeverPoisonsLate(t *testing.T) {
	const iterations = 10000
	for i := 0; i < iterations; i++ {
		parent, hangUp := context.WithCancel(context.Background())
		timeout := time.Hour
		if i%2 == 1 {
			timeout = time.Duration(i%50) * time.Microsecond // the timer's cancel
		}
		c := acquireCallCtx(wallClock{}, parent, timeout)
		conns := make([]markedConn, 3)
		for j := range conns {
			c.WatchConn(&conns[j])
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				hangUp()
			}
		}()
		for j := range conns {
			c.UnwatchConn(&conns[j])
			conns[j].taken.Store(true)
		}
		wg.Wait()
		hangUp()
		c.release()
		if i%16 == 0 {
			time.Sleep(50 * time.Microsecond) // let a straggling parent callback land
		}
		for j := range conns {
			if conns[j].late.Load() {
				t.Fatalf("iteration %d: connection %d poisoned after it was taken back", i, j)
			}
		}
	}
}

// A recycled context watches nothing of its previous dispatch.
func TestCancelRecycledContextForgetsConns(t *testing.T) {
	var old markedConn
	c := acquireCallCtx(wallClock{}, context.Background(), time.Hour)
	c.WatchConn(&old)
	c.UnwatchConn(&old)
	c.release()
	for i := 0; i < 8; i++ {
		next := acquireCallCtx(wallClock{}, context.Background(), time.Hour)
		next.mu.Lock()
		next.cancel(context.Canceled, false)
		next.mu.Unlock()
		next.release()
	}
	if old.poisoned.Load() {
		t.Fatal("a later dispatch's cancellation reached an earlier one's connection")
	}
}

// (c) The deadline passes while a gatherer is parked in a release's
// response read: that release's connection is poisoned, closed and
// never pooled; the other release's is pooled and serves the next
// dispatch without a dial.
func TestCancelDeadlineDuringReadClosesOnlyThatConn(t *testing.T) {
	testutil.CheckGoroutines(t)
	mute, prompt := newPipeRelease(t, -1, false), newPipeRelease(t, 0, false)
	rig := newScatterRig(t, map[string]*pipeRelease{"mute": mute, "prompt": prompt}, nil)
	eps := endpoints("mute", "prompt")
	rig.warmUp(t, eps)

	req := baseRequest(eps, ModeReliability)
	req.Timeout = 100 * time.Millisecond
	winner, err := rig.d.Do(req)
	if err != nil || winner.Release != "prompt" {
		t.Fatalf("winner %q, err %v", winner.Release, err)
	}
	winner.Buf.Release()
	o := rig.outcome(t)
	if m := o.reply(t, "mute"); m.responded || !errors.Is(m.err, context.DeadlineExceeded) {
		t.Fatalf("mute release: responded %v, err %v, want the deadline", m.responded, m.err)
	}
	if o.consumerGone {
		t.Fatal("a deadline was reported as the consumer's cancellation")
	}
	if opened, closed := mute.opened.Load(), mute.closed.Load(); opened != 1 || closed != 1 {
		t.Fatalf("mute release: %d opened, %d closed, want its one connection closed", opened, closed)
	}

	// The survivor: same connection, next exchange succeeds.
	single := baseRequest(eps[1:], ModeReliability)
	winner, err = rig.d.Do(single)
	if err != nil || winner.Release != "prompt" {
		t.Fatalf("dispatch after the deadline: winner %q, err %v", winner.Release, err)
	}
	winner.Buf.Release()
	rig.outcome(t)
	if opened, closed := prompt.opened.Load(), prompt.closed.Load(); opened != 1 || closed != 0 {
		t.Fatalf("prompt release: %d opened, %d closed, want one connection, still pooled", opened, closed)
	}
}

// (c) The consumer hangs up while every gatherer is parked in a read:
// each call ends once with the consumer's error, the outcome is flagged
// ConsumerGone (nothing is charged to a release), every connection is
// closed, and no goroutine is left behind — in the single-target fast
// path, sequential mode and the fan-outs alike.
func TestCancelConsumerGoneDuringRead(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mode    Mode
		targets int
	}{
		{"fast-path", ModeReliability, 1},
		{"sequential", ModeSequential, 2},
		{"reliability", ModeReliability, 3},
		{"responsiveness", ModeResponsiveness, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			testutil.CheckGoroutines(t)
			hosts := []string{"r0", "r1", "r2"}[:tc.targets]
			releases := make(map[string]*pipeRelease, len(hosts))
			for _, h := range hosts {
				releases[h] = newPipeRelease(t, -1, false)
			}
			rig := newScatterRig(t, releases, nil)
			eps := endpoints(hosts...)
			if tc.mode == ModeSequential {
				// A sequential warm-up stops at the first valid reply; warm
				// every release's pool.
				for i := range eps {
					rig.warmUp(t, eps[i:i+1])
				}
			} else {
				rig.warmUp(t, eps)
			}

			parent, hangUp := context.WithCancel(context.Background())
			defer hangUp()
			req := baseRequest(eps, tc.mode)
			req.Parent = parent
			req.Timeout = time.Hour
			time.AfterFunc(30*time.Millisecond, hangUp) // every read is parked by then
			start := time.Now()
			if _, err := rig.d.Do(req); err == nil {
				t.Fatal("a dispatch nobody answered delivered")
			}
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Fatalf("dispatch outlived its consumer by %v", elapsed)
			}
			o := rig.outcome(t)
			if !o.consumerGone {
				t.Fatal("aborted outcome not flagged ConsumerGone")
			}
			for _, r := range o.replies {
				if r.responded || !errors.Is(r.err, context.Canceled) {
					t.Fatalf("release %s: responded %v, err %v, want the consumer's cancellation", r.release, r.responded, r.err)
				}
			}
			if err := rig.d.Close(); err != nil {
				t.Fatal(err)
			}
			_ = rig.wc.Close()
			if out := rig.checkedOut(); out != 0 {
				t.Fatalf("%d connections still checked out after Close", out)
			}
		})
	}
}

// (d) The consumer hangs up as the replies arrive. Whichever way each
// race goes — delivered, or aborted and flagged — the connections that
// were pooled are sound: the next dispatch, which nobody cancels, gets
// every release's reply, on them or on fresh dials, and every connection
// is pooled or closed, none lost. The dispatches are µs-fast, far inside
// the watch tick, so the eager clock watches the consumer from the start;
// both ways must come up.
func TestCancelRacingFinishPooledConnsStaySound(t *testing.T) {
	const iterations = 2000
	testutil.CheckGoroutines(t)
	releases := map[string]*pipeRelease{
		"r0": newPipeRelease(t, 0, false),
		"r1": newPipeRelease(t, 0, false),
	}
	rig := newClockedScatterRig(t, eagerClock{}, releases, nil)
	eps := endpoints("r0", "r1")
	rig.warmUp(t, eps)
	var delivered, aborted int
	for i := 0; i < iterations; i++ {
		parent, hangUp := context.WithCancel(context.Background())
		req := baseRequest(eps, ModeReliability)
		req.Parent = parent
		fired := make(chan struct{})
		go func() {
			defer close(fired)
			// Spread the hang-up over the time a dispatch takes, on one
			// processor too.
			for spin := i % 64; spin > 0; spin-- {
				runtime.Gosched()
			}
			hangUp()
		}()
		winner, err := rig.d.Do(req)
		<-fired
		winner.Buf.Release()
		o := rig.outcome(t)
		switch {
		case o.consumerGone:
			aborted++
		case err != nil:
			t.Fatalf("iteration %d: err %v on a dispatch the consumer did not abort", i, err)
		default:
			delivered++
		}

		winner, err = rig.d.Do(baseRequest(eps, ModeReliability))
		if err != nil {
			t.Fatalf("iteration %d: dispatch after the race: %v", i, err)
		}
		winner.Buf.Release()
		for _, r := range rig.outcome(t).replies {
			if !r.responded {
				t.Fatalf("iteration %d: release %s failed on the dispatch after the race: %v", i, r.release, r.err)
			}
		}
		for host, r := range releases {
			if open := r.opened.Load() - r.closed.Load(); open != 1 {
				t.Fatalf("iteration %d: release %s has %d open connections, want the one pooled", i, host, open)
			}
		}
	}
	t.Logf("%d dispatches delivered, %d aborted", delivered, aborted)
	if delivered == 0 || aborted == 0 {
		t.Fatalf("the race went one way only: %d delivered, %d aborted", delivered, aborted)
	}
}
