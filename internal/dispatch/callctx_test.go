package dispatch

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

func TestCallCtxDeadline(t *testing.T) {
	c := acquireCallCtx(wallClock{}, context.Background(), 20*time.Millisecond)
	dl, ok := c.Deadline()
	if !ok || time.Until(dl) > 25*time.Millisecond {
		t.Fatalf("deadline = %v, ok = %v", dl, ok)
	}
	select {
	case <-c.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("deadline never fired")
	}
	if !errors.Is(c.Err(), context.DeadlineExceeded) {
		t.Fatalf("err = %v", c.Err())
	}
	if c.release() {
		t.Fatal("deadline misreported as consumer cancellation")
	}
}

func TestCallCtxParentCancellationPropagates(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	c := acquireCallCtx(wallClock{}, parent, time.Hour)
	select {
	case <-c.Done():
		t.Fatal("cancelled before parent")
	default:
	}
	cancel()
	select {
	case <-c.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("parent cancellation never propagated")
	}
	if !errors.Is(c.Err(), context.Canceled) {
		t.Fatalf("err = %v", c.Err())
	}
	if !c.release() {
		t.Fatal("consumer cancellation not flagged")
	}
}

func TestCallCtxParentDeadlineClips(t *testing.T) {
	parent, cancel := context.WithDeadline(context.Background(),
		time.Now().Add(10*time.Millisecond))
	defer cancel()
	c := acquireCallCtx(wallClock{}, parent, time.Hour)
	if dl, _ := c.Deadline(); time.Until(dl) > 15*time.Millisecond {
		t.Fatalf("deadline not clipped to parent: %v away", time.Until(dl))
	}
	select {
	case <-c.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("clipped deadline never fired")
	}
	c.release()
}

// A detached context is cancelled by nothing but its deadline: not by
// the consumer, at the watch tick or later, and the tick still re-arms
// the deadline. A stray propagation would end it first, at the tick,
// with context.Canceled; however late the runner wakes, the first
// cancellation is what Err reports.
func TestCallCtxDetachSurvivesParentCancel(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	c := acquireCallCtx(wallClock{}, parent, 50*time.Millisecond)
	c.detach()
	cancel()
	select {
	case <-c.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("detached context lost its deadline")
	}
	if !errors.Is(c.Err(), context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline: detached context cancelled by parent", c.Err())
	}
	if c.release() {
		t.Fatal("deadline misreported as consumer cancellation")
	}
}

func TestCallCtxValueDelegatesToParent(t *testing.T) {
	type key struct{}
	parent := context.WithValue(context.Background(), key{}, "travel-agency")
	c := acquireCallCtx(wallClock{}, parent, time.Second)
	if got := c.Value(key{}); got != "travel-agency" {
		t.Fatalf("Value = %v", got)
	}
	c.release()
	if got := c.Value(key{}); got != nil {
		t.Fatalf("Value after release = %v", got)
	}
}

// A recycled context must come back pristine: no leftover error, an
// open done channel, and the new incarnation's deadline.
func TestCallCtxReuseIsClean(t *testing.T) {
	for i := 0; i < 100; i++ {
		c := acquireCallCtx(wallClock{}, context.Background(), time.Minute)
		if c.Err() != nil {
			t.Fatalf("iteration %d: recycled context carries err %v", i, c.Err())
		}
		select {
		case <-c.Done():
			t.Fatalf("iteration %d: recycled context already done", i)
		default:
		}
		c.release()
	}
}

// A context whose cancellation fired is abandoned, never recycled with
// a closed channel.
func TestCallCtxFiredContextNotRecycledDirty(t *testing.T) {
	for i := 0; i < 50; i++ {
		parent, cancel := context.WithCancel(context.Background())
		c := acquireCallCtx(wallClock{}, parent, time.Hour)
		cancel()
		<-c.Done()
		c.release()
		// Whatever the pool hands out next must be clean.
		next := acquireCallCtx(wallClock{}, context.Background(), time.Minute)
		select {
		case <-next.Done():
			t.Fatalf("iteration %d: pool handed out a cancelled context", i)
		default:
		}
		next.release()
	}
}

// A consumer disconnect racing detach() must never poison the pool: if
// the parent-cancel callback already started when detach stopped the
// propagation, the struct may not be recycled — a stale callback firing
// against the next dispatch's context would spuriously cancel it. The
// eager clock's tick arms the watch at once; then the hang-up and detach
// race, each held back by a varying amount, so the parent callback has
// started before detach in some iterations and is stopped by it in
// others.
func TestCallCtxDetachRaceDoesNotPoisonPool(t *testing.T) {
	const iterations = 500
	var started, stopped int
	for i := 0; i < iterations; i++ {
		parent, cancel := context.WithCancel(context.Background())
		c := acquireCallCtx(eagerClock{}, parent, time.Hour)
		hungUp := make(chan struct{})
		go func() {
			defer close(hungUp)
			awaitWatch(c)
			for spin := i % 4; spin > 0; spin-- {
				runtime.Gosched()
			}
			cancel() // races the detach below
		}()
		awaitWatch(c)
		for spin := (i % 64) * 16; spin > 0; spin-- {
			_ = parent.Err()
		}
		c.detach()
		<-hungUp
		c.mu.Lock()
		if c.parentDirty {
			started++
		} else {
			stopped++
		}
		c.mu.Unlock()
		c.release()
		next := acquireCallCtx(eagerClock{}, context.Background(), time.Hour)
		time.Sleep(20 * time.Microsecond) // let any stale callback land
		if err := next.Err(); err != nil {
			t.Fatalf("iteration %d: recycled context cancelled by stale parent callback: %v", i, err)
		}
		select {
		case <-next.Done():
			t.Fatalf("iteration %d: recycled context already done", i)
		default:
		}
		next.release()
	}
	t.Logf("parent callback started before detach %d times, stopped by it %d times", started, stopped)
	if started == 0 || stopped == 0 {
		t.Fatalf("the race went one way only: %d started, %d stopped", started, stopped)
	}
}

// awaitWatch waits until c's tick has fired and armed the watch, or
// found the consumer gone.
func awaitWatch(c *callCtx) {
	for {
		c.mu.Lock()
		armed := !c.ticking
		c.mu.Unlock()
		if armed {
			return
		}
		runtime.Gosched()
	}
}

// A hang-up the tick finds is in effect before the tick lets go of the
// context, so release never recycles a context whose cancellation is
// still to come. Released racing the tick, after a varying number of
// yields, in most iterations, and after it in every fourth.
func TestCallCtxTickHangUpNotRecycled(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	cancel()
	var before, after int
	for i := 0; i < 500; i++ {
		c := acquireCallCtx(eagerClock{}, parent, time.Hour)
		if i%4 == 3 {
			awaitWatch(c)
		}
		for spin := i % 16; spin > 0; spin-- {
			runtime.Gosched()
		}
		if c.release() {
			after++
		} else {
			before++
		}
		next := acquireCallCtx(eagerClock{}, context.Background(), time.Hour)
		time.Sleep(20 * time.Microsecond) // let a late cancellation land
		if err := next.Err(); err != nil {
			t.Fatalf("iteration %d: recycled context cancelled late: %v", i, err)
		}
		next.release()
	}
	t.Logf("released before the tick %d times, after it %d times", before, after)
	if before == 0 || after == 0 {
		t.Fatalf("the race went one way only: %d before, %d after", before, after)
	}
}

// A dispatch that ends inside the tick never looks at its consumer: a
// hang-up then leaves its outcome alone.
func TestCallCtxEndsBeforeTickIgnoresParent(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	cancel()
	c := acquireCallCtx(frozenClock{}, parent, time.Hour)
	if c.Err() != nil || c.release() {
		t.Fatal("a context released before its tick followed its consumer")
	}
}

func TestCallCtxNilParent(t *testing.T) {
	c := acquireCallCtx(wallClock{}, nil, time.Minute)
	if c.Err() != nil || c.Value("k") != nil {
		t.Fatal("nil parent mishandled")
	}
	c.release()
}

// A context recycled from a dispatch on one clock never arms the next
// dispatch's deadline on that clock's timer.
func TestCallCtxTimerFollowsClock(t *testing.T) {
	for i := 0; i < 20; i++ {
		c := acquireCallCtx(frozenClock{}, context.Background(), time.Hour)
		c.release()
		next := acquireCallCtx(wallClock{}, context.Background(), time.Millisecond)
		select {
		case <-next.Done():
		case <-time.After(2 * time.Second):
			t.Fatalf("iteration %d: wall-clock deadline armed on another clock's timer", i)
		}
		next.release()
	}
}

// frozenClock never advances, and its timers never fire.
type frozenClock struct{}

func (frozenClock) Now() time.Time                        { return time.Unix(0, 0) }
func (frozenClock) AfterFunc(time.Duration, func()) Timer { return frozenTimer{} }

type frozenTimer struct{}

func (frozenTimer) Reset(time.Duration) bool { return true }
func (frozenTimer) Stop() bool               { return true }

// eagerClock is the wall clock, except that the watch tick fires at once:
// a context watches its consumer from the start, so a test can race the
// watch against a µs-fast dispatch.
type eagerClock struct{}

func (eagerClock) Now() time.Time { return time.Now() }
func (eagerClock) AfterFunc(d time.Duration, f func()) Timer {
	return eagerTimer{time.AfterFunc(eager(d), f)}
}

type eagerTimer struct{ *time.Timer }

func (t eagerTimer) Reset(d time.Duration) bool { return t.Timer.Reset(eager(d)) }

func eager(d time.Duration) time.Duration {
	if d == watchTick {
		return 0
	}
	return d
}
