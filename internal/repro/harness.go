package repro

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"sync"
	"time"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/core"
	"wsupgrade/internal/dispatch"
	"wsupgrade/internal/httpx"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/wire"
	"wsupgrade/internal/xrand"
)

// The discrete-event harness runs the §5.2 study on the shipping engine:
// core.Engine.ServeHTTP, unmodified, serves a scripted demand stream with
// two scripted releases behind core.Config.Begin and a virtual clock as
// core.Config.Clock. The clock advances only while the engine waits on
// it — every begun call parked in its End, every ended call's latency
// stamped — to the earliest event: a call's completion or a deadline. A
// block is thereby a function of its seed, however goroutines interleave.

// releaseURLs address the two scripted releases, deployed as versions
// "1" and "2".
var releaseURLs = [2]string{"http://release-1.invalid", "http://release-2.invalid"}

// demandScript is one demand's behaviour of each release: the kind of its
// response and its execution time in seconds.
type demandScript struct {
	kinds [2]relmodel.OutcomeKind
	secs  [2]float64
}

// scriptedReplies are the releases' responses by kind, labelled for
// oracle.Header: a right and a wrong answer, and a SOAP fault.
var scriptedReplies = func() (r [4]httpx.Result) {
	for k, body := range map[relmodel.OutcomeKind]string{
		relmodel.Correct:           `<addResponse><sum>3</sum></addResponse>`,
		relmodel.NonEvidentFailure: `<addResponse><sum>4</sum></addResponse>`,
	} {
		r[k] = httpx.Result{Status: http.StatusOK, Body: soap.EnvelopeRaw([]byte(body))}
	}
	r[relmodel.EvidentFailure] = httpx.Result{Status: http.StatusInternalServerError,
		Body: soap.FaultEnvelope(soap.ServerFault("scripted evident failure"))}
	for _, k := range relmodel.Kinds {
		r[k].Header = httpx.Header(oracle.InjectionHeader + ": " + k.String() + "\n")
	}
	return r
}()

var demandEnvelope = soap.EnvelopeRaw([]byte(`<addRequest><a>1</a><b>2</b></addRequest>`))

// stallAfter bounds one demand in wall time: holding the clock for a
// delivery the engine does not make deadlocks the demand.
var stallAfter = 10 * time.Second

var (
	errStalled       = errors.New("repro: demand stalled: the harness held the clock for a delivery the engine did not make")
	errEarlyResponse = errors.New("repro: consumer response before the arrival the harness expected to deliver it")
)

// harness is the virtual clock (a dispatch.Clock), the scheduler and the
// two scripted releases.
type harness struct {
	script func(*xrand.Rand) demandScript
	rng    *xrand.Rand
	pick   seededPick

	mu      sync.Mutex
	cond    sync.Cond
	now     time.Time
	err     error
	mode    core.Mode
	quorum  int
	d       demand
	parked  []*scriptedCall // begun calls waiting in End
	armed   []*virtualTimer
	running int // begun calls neither parked nor ended
	stamps  int // ended calls whose latency is not yet read

	executed [2]int     // each release's Begin calls
	execSecs [2]float64 // and their scripted execution times
}

// demand is the one being served.
type demand struct {
	script            demandScript
	start             time.Time
	targets, arrivals int
	holding           bool // the clock waits for the consumer's response
	written, served   bool
	recorded          bool // the engine has logged the demand's outcome
}

func newHarness(script func(*xrand.Rand) demandScript, seed uint64) *harness {
	h := &harness{script: script, rng: xrand.New(seed), pick: seededPick{xrand.New(seed ^ 0x5ad31ca7e0001)}, now: time.Unix(0, 0)}
	h.cond.L = &h.mu
	return h
}

// engine builds an engine on the harness: the scripted releases behind
// Begin, the virtual clock, ground-truth judging and the seeded pick.
func (h *harness) engine(cfg core.Config) (*core.Engine, error) {
	cfg.Releases = []core.Endpoint{{Version: "1", URL: releaseURLs[0]}, {Version: "2", URL: releaseURLs[1]}}
	cfg.Begin, cfg.Clock, cfg.Store = h.begin, h, h
	cfg.Oracle, cfg.Adjudicator = oracle.Header{}, h.pick
	h.mode, h.quorum = cmp.Or(cfg.Mode, core.ModeReliability), cmp.Or(cfg.Quorum, 1)
	return core.New(cfg)
}

// seededPick is the §5.2.1 rule, adjudicate.RandomValid, on the harness's
// own stream: the dispatcher's generators are pooled per processor, so
// their draws would depend on scheduling.
type seededPick struct{ rng *xrand.Rand }

func (p seededPick) Adjudicate(replies []adjudicate.Reply, _ *xrand.Rand) (adjudicate.Reply, error) {
	return adjudicate.RandomValid{}.Adjudicate(replies, p.rng)
}

// locked runs f under h.mu and wakes every waiter.
func (h *harness) locked(f func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	f()
	h.cond.Broadcast()
}

// Now implements dispatch.Clock; the first reads after calls end are
// their latency stamps.
func (h *harness) Now() (now time.Time) {
	h.locked(func() { h.stamps, now = max(h.stamps-1, 0), h.now })
	return now
}

// AfterFunc implements dispatch.Clock.
func (h *harness) AfterFunc(d time.Duration, f func()) dispatch.Timer {
	t := &virtualTimer{h: h, f: f}
	t.Reset(d)
	return t
}

type virtualTimer struct {
	h     *harness
	f     func()
	when  time.Time
	armed bool
}

func (t *virtualTimer) Reset(d time.Duration) (was bool) {
	t.h.locked(func() {
		was, t.when, t.armed = t.disarm(), t.h.now.Add(d), true
		t.h.armed = append(t.h.armed, t)
	})
	return was
}

func (t *virtualTimer) Stop() (was bool) {
	t.h.locked(func() { was = t.disarm() })
	return was
}

// disarm takes the timer off the clock; h.mu is held.
func (t *virtualTimer) disarm() bool {
	was := t.armed
	t.armed = false
	t.h.armed = slices.DeleteFunc(t.h.armed, func(x *virtualTimer) bool { return x == t })
	return was
}

// scriptedCall is one release call, due at its start plus the release's
// execution time unless its context ends first.
type scriptedCall struct {
	h    *harness
	ctx  context.Context
	rel  int
	kind relmodel.OutcomeKind
	due  time.Time
	done bool
	err  error
}

// begin is the engine's release transport (core.Config.Begin).
func (h *harness) begin(ctx context.Context, url, _ string, _ []byte, _ httpx.RetryPolicy) wire.Call {
	c := &scriptedCall{h: h, ctx: ctx, rel: slices.Index(releaseURLs[:], url)}
	h.locked(func() {
		secs := h.d.script.secs[c.rel]
		c.kind, c.due = h.d.script.kinds[c.rel], h.now.Add(seconds(secs))
		h.running++
		h.executed[c.rel]++
		h.execSecs[c.rel] += secs
	})
	return wire.Deferred(c.end)
}

// end parks the call until the scheduler completes it or its deadline
// fires. On a context that has already ended it fails at once, as the
// wire client's call does.
func (c *scriptedCall) end() (httpx.Result, error) {
	h := c.h
	h.mu.Lock()
	defer h.mu.Unlock()
	h.running--
	if c.err = c.ctx.Err(); c.err == nil {
		h.parked = append(h.parked, c)
		h.cond.Broadcast()
		for !c.done {
			h.cond.Wait()
		}
	} else {
		h.arrive(false)
	}
	if c.err != nil {
		return httpx.Result{}, c.err
	}
	return scriptedReplies[c.kind], nil
}

// arrive counts an ended call — valid if its response came in time and is
// not an evident failure — and holds the clock once it completes the
// delivery. h.mu is held.
func (h *harness) arrive(valid bool) {
	h.stamps++
	h.d.arrivals++
	if !h.d.written && h.delivers(valid) {
		h.d.holding = true
	}
	h.cond.Broadcast()
}

// delivers reports whether the arrival just counted completes delivery:
// all the harness knows of the §4.2 modes. A wrong answer fails the run
// (errStalled or errEarlyResponse) rather than skewing it.
func (h *harness) delivers(valid bool) bool {
	switch h.mode {
	case core.ModeResponsiveness, core.ModeSequential:
		return valid || h.d.arrivals == h.d.targets
	case core.ModeDynamic:
		return h.d.arrivals == min(h.quorum, h.d.targets)
	}
	return h.d.arrivals == h.d.targets
}

// advance fires the next event: the earliest completion of a parked call
// (the lower release first on a tie), or a deadline before it, which
// fails every call whose context it ends. h.mu is held.
func (h *harness) advance() {
	next := slices.MinFunc(h.parked, func(a, b *scriptedCall) int {
		return cmp.Or(a.due.Compare(b.due), a.rel-b.rel)
	})
	var timer *virtualTimer
	for _, t := range h.armed {
		if t.when.Before(next.due) && (timer == nil || t.when.Before(timer.when)) {
			timer = t
		}
	}
	if timer == nil {
		h.now = next.due
		h.finish(next, nil)
		return
	}
	h.now = timer.when
	timer.disarm()
	h.mu.Unlock()
	timer.f()
	h.mu.Lock()
	for _, c := range slices.Clone(h.parked) {
		if err := c.ctx.Err(); err != nil {
			h.finish(c, err)
		}
	}
}

func (h *harness) finish(c *scriptedCall, err error) {
	h.parked = slices.DeleteFunc(h.parked, func(x *scriptedCall) bool { return x == c })
	c.err, c.done = err, true
	h.arrive(err == nil && c.kind != relmodel.EvidentFailure)
}

// fail stops the run and releases every parked call; h.mu is held.
func (h *harness) fail(err error) {
	h.err = cmp.Or(h.err, err)
	for _, c := range h.parked {
		c.err, c.done = err, true
	}
	h.parked = nil
	h.cond.Broadcast()
}

// consumer is the demand's http.ResponseWriter. The response is
// delivered at its first write.
type consumer struct {
	*httptest.ResponseRecorder
	h  *harness
	at time.Duration // from the demand's start
	// kind is what the consumer received: the scripted kind of the
	// delivered release's response, EvidentFailure for the middleware's
	// exception, or 0 for "Web Service unavailable".
	kind relmodel.OutcomeKind
}

func (w *consumer) WriteHeader(status int) {
	w.delivered()
	w.ResponseRecorder.WriteHeader(status)
}

func (w *consumer) Write(b []byte) (int, error) {
	w.delivered()
	return w.ResponseRecorder.Write(b)
}

func (w *consumer) delivered() {
	w.h.locked(func() {
		if d := &w.h.d; !d.written {
			if !d.holding {
				w.h.fail(errEarlyResponse)
			}
			w.at, d.holding, d.written = w.h.now.Sub(d.start), false, true
		}
	})
}

func (w *consumer) classify(script demandScript) relmodel.OutcomeKind {
	switch winner := w.Header().Get("X-Wsupgrade-Winner"); {
	case winner != "":
		return script.kinds[winner[0]-'1']
	case bytes.Contains(w.Body.Bytes(), []byte("Web Service unavailable")):
		return 0
	}
	return relmodel.EvidentFailure
}

// Write implements io.Writer: the harness is the engine's event-log
// sink, so it learns when a demand's outcome is recorded. The engine
// stamps the record from the clock after the demand's deadline has
// stopped; serve waits for it, or a collector that finishes after
// delivery could read the clock into the next demand.
func (h *harness) Write(p []byte) (int, error) {
	h.locked(func() { h.d.recorded = true })
	return len(p), nil
}

// serve drives the next scripted demand through e until the engine is
// done with the clock: the response written, every call ended and
// stamped, every deadline stopped or fired, the outcome recorded.
func (h *harness) serve(e *core.Engine) (*consumer, error) {
	w := &consumer{ResponseRecorder: httptest.NewRecorder(), h: h}
	r := &http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/"},
		Header: http.Header{"Content-Type": {soap.ContentType}},
		Body:   io.NopCloser(bytes.NewReader(demandEnvelope)), ContentLength: int64(len(demandEnvelope))}
	h.mu.Lock()
	h.d = demand{script: h.script(h.rng), start: h.now, targets: 2}
	if p := e.Phase(); p == core.PhaseOldOnly || p == core.PhaseNewOnly {
		h.d.targets = 1
	}
	h.mu.Unlock()
	go func() {
		e.ServeHTTP(w, r)
		h.locked(func() { h.d.served = true })
	}()
	stall := time.AfterFunc(stallAfter, func() { h.locked(func() { h.fail(errStalled) }) })
	defer stall.Stop()

	h.mu.Lock()
	defer h.mu.Unlock()
	for h.err == nil {
		settled := !h.d.holding && h.stamps == 0 && h.running == 0
		switch {
		case settled && len(h.parked) > 0:
			h.advance()
		case settled && h.d.served && h.d.recorded && len(h.armed) == 0:
			w.kind = w.classify(h.d.script)
			return w, nil
		default:
			h.cond.Wait()
		}
	}
	return nil, h.err
}

// seconds converts a scripted time to the clock's resolution.
func seconds(s float64) time.Duration { return time.Duration(math.Round(s * float64(time.Second))) }
