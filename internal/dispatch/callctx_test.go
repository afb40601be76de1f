package dispatch

import (
	"context"
	"errors"
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

func TestCallCtxDetachSurvivesParentCancel(t *testing.T) {
	parent, cancel := context.WithCancel(context.Background())
	c := acquireCallCtx(wallClock{}, parent, time.Hour)
	c.detach()
	cancel()
	// Give a stray propagation a chance to fire wrongly.
	time.Sleep(20 * time.Millisecond)
	select {
	case <-c.Done():
		t.Fatal("detached context still cancelled by parent")
	default:
	}
	if c.Err() != nil {
		t.Fatalf("err = %v", c.Err())
	}
	c.release()
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
// against the next dispatch's context would spuriously cancel it.
func TestCallCtxDetachRaceDoesNotPoisonPool(t *testing.T) {
	for i := 0; i < 500; i++ {
		parent, cancel := context.WithCancel(context.Background())
		c := acquireCallCtx(wallClock{}, parent, time.Hour)
		go cancel() // races the detach below
		c.detach()
		c.release()
		next := acquireCallCtx(wallClock{}, context.Background(), time.Hour)
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
