package dispatch

import (
	"context"
	"slices"
	"sync"
	"time"
)

// callCtx is the per-dispatch context.Context: it carries the dispatch
// deadline and propagates cancellation from the consumer's incoming
// request context, without the per-request allocations of
// context.WithTimeout (a fresh timerCtx, timer, closure and done
// channel per dispatch).
//
// The consumer watch is lazy. The context's one timer is first armed for
// the earlier of the deadline and watchTick; a dispatch that is over
// within the tick never looks at its parent, so it pays nothing for a
// watch that could only matter to a demand still running. When the tick
// fires first, onTimer re-arms the timer for the deadline and, unless
// the context has been detached, cancels at once if the consumer has
// already hung up, or else registers a context.AfterFunc on the parent.
// A hang-up is thereby noticed within a tick; one that comes before the
// tick of a dispatch that ends inside it is not noticed at all, and the
// dispatch keeps its genuine outcome.
//
// Pooling discipline: the struct, its done channel and its timer are
// reused across dispatches. The done channel can be reused because on
// the common path nothing ever closes it — when every release call
// completes before the deadline and the consumer stays connected,
// release() stops the timer and the parent watcher and puts the
// pristine struct back. Only when a cancellation actually fires (the
// deadline passes, or the consumer disconnects) is the channel closed;
// such a struct is abandoned to the GC instead of recycled, because a
// cancellation callback may still be in flight and per-incarnation
// identity is exactly what this design avoids paying for.
//
// release() must only be called once every user of the context has
// finished with it (the dispatcher calls it after the last reply is
// collected), which is also what makes channel reuse sound: no stale
// reader can be parked on Done() when the next dispatch borrows it.
//
// The context is also wire's connWatcher: it cancels the connections of
// the exchanges under it itself, from cancel, under mu — so one that
// UnwatchConn has taken back is never poisoned and may be pooled.
type callCtx struct {
	done chan struct{} // created once per struct; closed at most once

	mu           sync.Mutex
	timer        Timer // clock.AfterFunc(onTimer); created on first arm, reused
	clock        Clock // the clock that made timer
	err          error
	consumerGone bool // cancellation came from the consumer's context
	parent       context.Context
	deadline     time.Time
	conns        []interface{ Poison() } // of the exchanges in flight, one per target at most

	ticking  bool // the timer is armed for the watch tick, not the deadline
	detached bool // detach ran: the tick arms no watch

	stopParent func() bool // context.AfterFunc stop; nil until the tick arms the watch
	// parentDirty records a detach() that could not stop the parent
	// callback (it had already started): the struct must not be
	// recycled, because the callback may still fire against it.
	parentDirty bool

	// Bound method values, created once so arming never allocates.
	onTimerFn        func()
	onParentCancelFn func()
}

// watchTick is how long a dispatch runs before its context starts
// watching the consumer's: the bound on noticing a hang-up.
const watchTick = time.Millisecond

var _ context.Context = (*callCtx)(nil)

// Clock is the dispatcher's time source: the deadlines it arms and the
// latencies it stamps. A Clock must be comparable (a pointer, or a type
// with no fields) — a pooled context compares clocks to know whether its
// timer can be reused.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) Timer
}

// Timer is a pending call of a Clock's AfterFunc, as *time.Timer is the
// wall clock's.
type Timer interface {
	Reset(d time.Duration) bool
	Stop() bool
}

// wallClock is the production Clock.
type wallClock struct{}

func (wallClock) Now() time.Time                            { return time.Now() }
func (wallClock) AfterFunc(d time.Duration, f func()) Timer { return time.AfterFunc(d, f) }

var callCtxPool sync.Pool

// acquireCallCtx arms a pooled context: its deadline is clock's now plus
// timeout, clipped to the parent's own deadline, and the parent's
// cancellation (the consumer hanging up) propagates from one watchTick
// on until detach or release.
//
//wsu:owns return
func acquireCallCtx(clock Clock, parent context.Context, timeout time.Duration) *callCtx {
	c, _ := callCtxPool.Get().(*callCtx)
	if c == nil {
		c = &callCtx{done: make(chan struct{})}
		c.onTimerFn = c.onTimer
		c.onParentCancelFn = c.onParentCancel
	}
	now := clock.Now()
	dl := now.Add(timeout)
	if parent != nil {
		if pd, ok := parent.Deadline(); ok && pd.Before(dl) {
			dl = pd
		}
	}
	arm := dl.Sub(now)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.parent = parent
	c.deadline = dl
	c.ticking = parent != nil && arm > watchTick
	if c.ticking {
		arm = watchTick
	}
	c.detached, c.parentDirty = false, false
	// A recycled context's timer is stopped; it is reused only on the
	// clock that made it.
	if c.timer == nil || c.clock != clock {
		c.timer, c.clock = clock.AfterFunc(arm, c.onTimerFn), clock
	} else {
		c.timer.Reset(arm)
	}
	return c
}

// onTimer is the timer's callback: the deadline, or the watch tick.
func (c *callCtx) onTimer() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.ticking {
		c.cancel(context.DeadlineExceeded, false)
		return
	}
	c.ticking = false
	if c.parent == nil {
		return // released while the tick fired; the struct is abandoned
	}
	c.timer.Reset(c.deadline.Sub(c.clock.Now()))
	if c.detached {
		return
	}
	// The cancellation is set under the lock that re-armed the timer, so
	// release sees it and does not recycle the struct.
	if err := c.parent.Err(); err != nil {
		c.cancel(err, true)
	} else if c.parent.Done() != nil {
		c.stopParent = context.AfterFunc(c.parent, c.onParentCancelFn)
	}
}

func (c *callCtx) onParentCancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	err := context.Canceled
	if c.parent != nil {
		if perr := c.parent.Err(); perr != nil {
			err = perr
		}
	}
	c.cancel(err, true)
}

// cancel ends the context; c.mu is held.
func (c *callCtx) cancel(err error, consumer bool) {
	if c.err != nil {
		return
	}
	c.err = err
	c.consumerGone = consumer
	close(c.done)
	for _, cn := range c.conns {
		cn.Poison()
	}
	c.conns = slices.Delete(c.conns, 0, len(c.conns))
}

// WatchConn registers cn to be poisoned if the context is cancelled
// before UnwatchConn takes it back; false means it already is.
func (c *callCtx) WatchConn(cn interface{ Poison() }) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return false
	}
	c.conns = append(c.conns, cn)
	return true
}

// UnwatchConn takes cn back. Once it returns, no cancellation of this
// context reaches cn: one that was under way has finished poisoning it.
func (c *callCtx) UnwatchConn(cn interface{ Poison() }) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := slices.Index(c.conns, cn); i >= 0 {
		c.conns = slices.Delete(c.conns, i, i+1)
	}
}

// detach stops consumer-cancellation propagation: the response has been
// delivered and the remaining collection is the middleware's own
// monitoring work, bounded by the dispatch deadline only. A consumer
// disconnect that already fired stays in effect.
func (c *callCtx) detach() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.detached = true
	if c.stopParent != nil {
		if !c.stopParent() {
			// The parent-cancel callback has already started: it may
			// still fire against this incarnation, so release() must
			// not recycle the struct.
			c.parentDirty = true
		}
		c.stopParent = nil
	}
}

// release disarms the context, recycles it when no cancellation
// callback ever ran (or can still run), and reports whether the
// consumer's own request context cancelled it. Must be called exactly
// once, after the last user of the context has finished.
//
// Stop runs under c.mu: a timer it finds pending has no callback waiting
// to run against this incarnation, since the tick re-arms it under c.mu.
//
//wsu:owns c
//wsu:allow poolcheck -- dirty contexts (a callback ran or may still run) are left to the GC
func (c *callCtx) release() (gone bool) {
	c.mu.Lock()
	quiet := c.timer.Stop() && !c.parentDirty && c.err == nil
	if c.stopParent != nil {
		quiet = c.stopParent() && quiet
		c.stopParent = nil
	}
	gone = c.consumerGone
	c.parent = nil
	c.mu.Unlock()
	if quiet {
		callCtxPool.Put(c)
	}
	// Otherwise a cancellation callback ran — or may still be running —
	// against this incarnation: the struct is dirty (closed channel,
	// set error) and is left for the GC.
	return gone
}

// Deadline implements context.Context.
func (c *callCtx) Deadline() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.deadline, true
}

// Done implements context.Context.
func (c *callCtx) Done() <-chan struct{} { return c.done }

// Err implements context.Context.
func (c *callCtx) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Value implements context.Context by delegating to the parent, so
// request-scoped values (traces, consumer identity) flow through to the
// release calls.
func (c *callCtx) Value(key any) any {
	c.mu.Lock()
	p := c.parent
	c.mu.Unlock()
	if p == nil {
		return nil
	}
	return p.Value(key)
}
