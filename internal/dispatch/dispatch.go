// Package dispatch is the fan-out/adjudicate pipeline of the managed
// upgrade middleware (§4.2): given one intercepted consumer request and
// the set of release endpoints to exercise, it invokes the releases
// according to the operating mode, collects their replies within the
// dispatch deadline, delivers an adjudicated winner, and hands the
// complete reply set to the monitoring layer — finishing the collection
// in the background when a mode delivers early.
//
// The package is lifecycle-agnostic: the caller decides which releases
// are targets (phase selection, health marks) and which adjudication
// rule delivers (phase authority, per-request consumer choice); the
// dispatcher owns the mechanics — deadlines, the scatter/gather fan-out,
// reply pooling, and sequential mode (which a single target also takes).
//
// A fan-out scatters, then gathers: the dispatching goroutine begins
// every target's call itself (wire.Client.Begin writes the request
// without waiting on the peer), so every request is on the wire before
// anyone waits for a reply; only the waiting — one End per call — is
// handed to gatherer goroutines, which the dispatcher keeps parked
// between dispatches, and when delivery needs every reply anyway the
// dispatching goroutine keeps one End for itself.
//
// Deadlines derive from the consumer's incoming request context: a
// disconnected client cancels its in-flight fan-out. Once a response
// has been delivered, the remaining collection detaches from the
// consumer and is bounded by the dispatch timeout alone, so monitoring
// still sees every release's behaviour. Per-dispatch deadline contexts
// are pooled (see callCtx) instead of allocating context.WithTimeout
// machinery on every request.
package dispatch

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/httpx"
	"wsupgrade/internal/pool"
	"wsupgrade/internal/protocol"
	"wsupgrade/internal/protocol/soapcodec"
	"wsupgrade/internal/wire"
	"wsupgrade/internal/xrand"
)

// Endpoint identifies one deployed release of the upgraded service.
type Endpoint struct {
	// Version is the release's version string (releases must be
	// distinguishable, §3.2).
	Version string
	// URL is the release's SOAP endpoint.
	URL string
	// MonRef is an opaque annotation the dispatch layer threads through
	// to the outcome hook unchanged: the engine stores its monitor's
	// interned release index here so outcomes aggregate without a name
	// lookup per observation. Zero means "no annotation". Outcome.Replies
	// is aligned with Outcome.Targets, so Targets[i].MonRef annotates
	// Replies[i].
	MonRef int32 `json:"-"`
}

// Mode is the fan-out strategy while several releases are invoked (§4.2).
type Mode int

const (
	// ModeReliability waits for all releases (bounded by Timeout) and
	// adjudicates everything collected — §4.2 mode 1.
	ModeReliability Mode = iota + 1
	// ModeResponsiveness delivers the first valid response — mode 2.
	ModeResponsiveness
	// ModeDynamic delivers after Quorum responses arrive — mode 3.
	ModeDynamic
	// ModeSequential invokes releases one at a time, moving on only
	// after an evident failure — mode 4.
	ModeSequential
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeReliability:
		return "parallel-reliability"
	case ModeResponsiveness:
		return "parallel-responsiveness"
	case ModeDynamic:
		return "parallel-dynamic"
	case ModeSequential:
		return "sequential"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Known reports whether m is one of the four §4.2 operating modes.
func (m Mode) Known() bool { return m >= ModeReliability && m <= ModeSequential }

// ParseMode converts a mode name to its value. Both the String form
// ("parallel-reliability") and the short form ("reliability") parse.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "parallel-reliability", "reliability":
		return ModeReliability, nil
	case "parallel-responsiveness", "responsiveness":
		return ModeResponsiveness, nil
	case "parallel-dynamic", "dynamic":
		return ModeDynamic, nil
	case "sequential":
		return ModeSequential, nil
	default:
		return 0, fmt.Errorf("dispatch: unknown mode %q", s)
	}
}

// Request describes one fan-out.
type Request struct {
	// Parent is the consumer's incoming request context: its
	// cancellation aborts the fan-out until a response is delivered,
	// and its deadline (if earlier) clips the dispatch deadline.
	Parent context.Context
	// Targets are the releases to invoke, oldest first. At least one.
	Targets []Endpoint
	// Mode is the fan-out strategy; zero means ModeReliability.
	Mode Mode
	// Quorum is ModeDynamic's response count.
	Quorum int
	// Timeout bounds the dispatch; in sequential mode it bounds each
	// release call, so a release that times out still fails over.
	Timeout time.Duration
	// Operation names the invoked operation (monitoring key).
	Operation string
	// Envelope is the SOAP envelope posted to each release.
	Envelope []byte
	// EnvelopeBuf, when non-nil, is the pooled buffer backing Envelope.
	// Its ownership transfers to the dispatcher with the call to Do: the
	// envelope stays live until the last release call has finished
	// (background collection included), and the dispatcher releases the
	// buffer exactly once, when the dispatch completes.
	EnvelopeBuf *pool.Buf
	// Deliver selects the delivered reply among the collected
	// responses; nil means adjudicate.RandomValid. An
	// adjudicate.Preferred rule names an authority, whose reply an
	// early-delivering mode waits for before it delivers anything.
	Deliver adjudicate.Adjudicator
	// Oldest and Newest annotate the outcome for pairwise monitoring
	// (the Table 1 joint record pairs the oldest and newest release).
	Oldest, Newest Endpoint
}

// Outcome is the complete result of one dispatch, delivered to the
// monitoring hook once every invoked release has been accounted for —
// possibly after Do returned, when a mode delivered early. The Replies
// slice is pooled, and each reply's Body may alias a pooled buffer
// that is recycled the moment the hook returns: the hook must not
// retain the slice and must copy any body bytes it keeps. A twin's Body
// (fanout.classify) aliases its sibling's buffer, not its own Buf,
// until then; the Winner's Body never lies in another reply's buffer.
type Outcome struct {
	// Operation names the invoked operation.
	Operation string
	// Targets are the releases that were eligible; in sequential mode
	// only the first len(Replies) were actually invoked.
	Targets []Endpoint
	// Replies holds each invoked release's classified reply, aligned
	// with Targets.
	Replies []adjudicate.Reply
	// Winner is the delivered reply (zero when delivery failed).
	Winner adjudicate.Reply
	// Oldest and Newest echo the request's pair annotation.
	Oldest, Newest Endpoint
	// ConsumerGone marks a fan-out aborted by the consumer's own
	// request context: the replies reflect the abort, not release
	// behaviour, and must not be charged to the releases.
	ConsumerGone bool
}

// Config parameterizes a Dispatcher.
type Config struct {
	// Begin is the release-call transport: it starts one call without
	// waiting on the peer, and the returned call's End finishes it —
	// retry of transient failures included, under whatever policy the
	// transport was bound to (the engine binds httpx.NoRetry). The
	// dispatcher ends every call it begins exactly once. Required: the
	// engine passes its wire client's Begin, tests substitute
	// wire.Deferred fakes.
	Begin func(ctx context.Context, url, contentType string, body []byte) wire.Call
	// Clock arms the dispatch deadlines and stamps release latencies;
	// nil means the wall clock. A virtual clock with fake releases behind
	// Begin replays a demand stream deterministically.
	Clock Clock
	// Seed drives adjudication tie-breaking.
	Seed uint64
	// OnOutcome receives every dispatch's complete outcome. May be nil.
	// It runs on the dispatching goroutine or, for early-delivery
	// modes, on a background collector; it must be safe for concurrent
	// use and must not retain the pooled Replies slice.
	OnOutcome func(Outcome)
	// Codec classifies release replies and resolves per-operation
	// target URLs (the protocol seam); nil means the SOAP codec.
	Codec protocol.Codec
}

// Dispatcher executes fan-outs. Construct with New; Close stops the
// parked gatherers and waits for background collection to drain.
type Dispatcher struct {
	begin     func(ctx context.Context, url, contentType string, body []byte) wire.Call
	clock     Clock
	onOutcome func(Outcome)
	codec     protocol.Codec
	// contentType caches codec.ContentType() so the fan-out path does
	// not re-ask per call.
	contentType string

	// Adjudication tie-breaking draws from a pool of deterministic
	// generators: one atomic-free Get per request instead of a
	// dispatcher-wide lock. rngMaster only seeds new pool members.
	rngMu     sync.Mutex
	rngMaster *xrand.Rand
	rngPool   sync.Pool

	// jobs hands a call to a parked gatherer; it is unbuffered, so a
	// non-blocking send succeeds only into one already waiting. parked
	// counts the gatherers waiting on it or about to, quit stops them.
	jobs   chan gatherJob
	parked atomic.Int32
	quit   chan struct{}

	// wg counts the goroutines Do starts before Close, which waits for
	// them; closed, under mu, tells Do that Close has begun, so the
	// WaitGroup never gains a count while Close waits on it.
	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// New builds a dispatcher.
func New(cfg Config) *Dispatcher {
	if cfg.Begin == nil {
		panic("dispatch: Config.Begin is required")
	}
	codec := cfg.Codec
	if codec == nil {
		codec = soapcodec.Default
	}
	clock := cfg.Clock
	if clock == nil {
		clock = wallClock{}
	}
	return &Dispatcher{
		begin:       cfg.Begin,
		clock:       clock,
		onOutcome:   cfg.OnOutcome,
		codec:       codec,
		contentType: codec.ContentType(),
		rngMaster:   xrand.New(cfg.Seed),
		jobs:        make(chan gatherJob),
		quit:        make(chan struct{}),
	}
}

// Close stops the parked gatherers and waits for background reply
// collection to finish. Collection is bounded by the dispatch timeout,
// so Close never waits longer than the longest in-flight deadline. A
// dispatch that races Close still ends every call it begins, and none
// of its goroutines stays parked; a second Close does nothing.
func (d *Dispatcher) Close() error {
	d.mu.Lock()
	if !d.closed {
		d.closed = true
		close(d.quit)
	}
	d.mu.Unlock()
	d.wg.Wait()
	return nil
}

// enter counts a goroutine Do is about to start in d.wg, unless Close
// has begun: then it reports false, and the goroutine, uncounted, ends
// what it was started for and exits within the dispatch deadline.
func (d *Dispatcher) enter() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	d.wg.Add(1)
	return true
}

// getRNG hands one generator to a request. Generators are pooled; a
// fresh one is split off the seeded master only when the pool is empty.
//
//wsu:owns return
func (d *Dispatcher) getRNG() *xrand.Rand {
	if r, ok := d.rngPool.Get().(*xrand.Rand); ok {
		return r
	}
	d.rngMu.Lock()
	defer d.rngMu.Unlock()
	return d.rngMaster.Split()
}

//wsu:owns r
func (d *Dispatcher) putRNG(r *xrand.Rand) { d.rngPool.Put(r) }

// deliver adjudicates the collected replies with a pooled generator.
func (d *Dispatcher) deliver(rule adjudicate.Adjudicator, collected []adjudicate.Reply) (adjudicate.Reply, error) {
	rng := d.getRNG()
	winner, err := rule.Adjudicate(collected, rng)
	d.putRNG(rng)
	return winner, err
}

// complete reports the outcome — aborted by the consumer when gone — and
// recycles the reply slice, the pooled reply bodies, and the pooled
// request envelope. Called exactly once per dispatch, after the last
// reply is in and its deadline released — the single point past which
// (a) the envelope has no remaining reader and (b) monitoring has taken
// its record-time copy of every reply body, so recycling here cannot be
// observed. The winner's extra reference (taken at delivery) survives
// this release for the consumer write.
//
//wsu:owns replies envBuf
func (d *Dispatcher) complete(gone bool, operation string, targets []Endpoint,
	replies []adjudicate.Reply, winner adjudicate.Reply, oldest, newest Endpoint, envBuf *pool.Buf) {
	if d.onOutcome != nil {
		d.onOutcome(Outcome{
			Operation:    operation,
			Targets:      targets,
			Replies:      replies,
			Winner:       winner,
			Oldest:       oldest,
			Newest:       newest,
			ConsumerGone: gone,
		})
	}
	for i := range replies {
		replies[i].Buf.Release()
	}
	envBuf.Release()
	putReplySlice(replies)
}

// Do executes one fan-out and returns the delivered reply (or the
// adjudication error). Monitoring work that should not delay delivery
// finishes in the background.
//
// Ownership: req.EnvelopeBuf (if set) transfers to the dispatcher,
// which releases it when the dispatch completes. The returned winner
// carries one reference of its own to its pooled body (Reply.Buf) —
// taken at delivery, before the reply set is recycled — which the
// caller discharges with ReleaseBody once the response is written.
func (d *Dispatcher) Do(req Request) (adjudicate.Reply, error) {
	targets, operation, envelope := req.Targets, req.Operation, req.Envelope
	oldest, newest := req.Oldest, req.Newest
	rule := req.Deliver
	if rule == nil {
		rule = adjudicate.RandomValid{}
	}

	// One target (single-release phases, or every other target marked
	// down) is the sequential mode over one release: one synchronous
	// call, no goroutine, no channel, no fan-out bookkeeping.
	if len(targets) == 1 || req.Mode == ModeSequential {
		return d.doSequential(&req, rule)
	}
	callCtx := acquireCallCtx(d.clock, req.Parent, req.Timeout)

	// How many replies must arrive before delivery.
	n := len(targets)
	need := n
	switch req.Mode {
	case ModeDynamic:
		if req.Quorum > 0 && req.Quorum < need {
			need = req.Quorum
		}
	case ModeResponsiveness:
		need = 1
	}

	// Scatter: every request goes out from this goroutine, in target
	// order, before anything waits for a reply.
	f := d.acquireFanout(n)
	for i, t := range targets {
		f.hold(i, d.clock.Now(), d.beginCall(callCtx, t, operation, envelope))
	}
	// Gather: each call is ended — reply read, latency stamped — by
	// exactly one goroutine, so a slow release's time is never charged
	// to another. When delivery waits for every reply anyway, this
	// goroutine ends the first call itself and n-1 gatherers end the
	// rest; when delivery may come early it must stay free to deliver,
	// so every call gets a gatherer. Gatherers are parked between
	// dispatches (handOff), so a call's gatherer is usually woken, not
	// started. The replies are classified where they are collected, in
	// the order they come in (fanout.classify), so that a reply that
	// repeats the bytes of a sibling already in is not decoded again.
	//
	// Which call it keeps was measured: the first reads the same latency
	// as the last and costs less saturated capacity where the handler
	// goes on to compute (publish-small) — it usually finishes before a
	// gatherer does, so it is resumed by a channel hand-off, which also
	// wakes an idle P, not straight from the netpoller (DECISIONS.md, "two
	// faster designs were measured and not taken, and which call Do keeps").
	replies := getReplySlice(n)
	received := 0
	first := 0
	if need == n {
		first = 1
	}
	for i := first; i < n; i++ {
		d.handOff(f, i)
	}
	if first == 1 {
		f.classify(replies, targets, f.end(0))
		received = 1
	}
	// A rule that names an authority (a phase's Preferred release)
	// delivers nothing before the authority's reply is in, however early
	// the mode may deliver: the authority's valid reply is the delivery.
	// Only when it is an evident failure does the mode's own rule go on.
	auth := authority(rule, targets)
	for received < need || (auth >= 0 && replies[auth].Release == "") {
		f.classify(replies, targets, <-f.ch)
		received++
	}
	if req.Mode == ModeResponsiveness {
		// Keep collecting until a valid reply arrives or all are in.
		for !anyValid(replies) && received < len(targets) {
			f.classify(replies, targets, <-f.ch)
			received++
		}
	}

	// Only actual responses are adjudicated: a SOAP fault is a collected
	// (evidently incorrect) response, while a timeout or transport error
	// means nothing was collected from that release (§5.2.1).
	collected := getReplySlice(received)[:0]
	for _, r := range replies {
		if r.Release != "" && responded(r) {
			collected = append(collected, r)
		}
	}
	winner, adjErr := d.deliver(rule, collected)
	putReplySlice(collected)
	// The winner's body aliases a pooled reply buffer that complete will
	// release; its own reference keeps it live for the consumer write,
	// once a twin's body is moved into its own buffer.
	winner.Body = ownBody(winner, replies)
	winner.Buf.Retain()

	if received == len(targets) {
		d.complete(callCtx.release(), operation, targets, replies, winner, oldest, newest, req.EnvelopeBuf)
		f.release()
		return winner, adjErr
	}
	// Delivery happened early; detach from the consumer's context (the
	// response is theirs — the rest of the collection is ours) and
	// finish in the background so the monitoring subsystem still sees
	// every release's behaviour, bounded by the dispatch deadline. The
	// envelope and reply buffers stay live with the collection: complete
	// releases them only after the last reply is in.
	callCtx.detach()
	remaining := len(targets) - received
	partial := replies
	envBuf := req.EnvelopeBuf
	counted := d.enter()
	go func() {
		if counted {
			defer d.wg.Done()
		}
		for i := 0; i < remaining; i++ {
			f.classify(partial, targets, <-f.ch)
		}
		d.complete(callCtx.release(), operation, targets, partial, winner, oldest, newest, envBuf)
		f.release()
	}()
	return winner, adjErr
}

// ---------------------------------------------------------------------------
// Pooled fan-out state

// ended is call i's result as the goroutine that ended it took it in:
// the transport's answer and the latency it stamped.
type ended struct {
	i       int
	res     httpx.Result
	err     error
	latency time.Duration
}

// pending is one target's call between the scatter that began it and
// the gather that ends it; start is when its request write began.
type pending struct {
	call  wire.Call
	start time.Time
}

// fanout is the pooled per-dispatch fan-out state: the reply channel,
// one slot per target holding that target's begun call, and the status
// each target's reply came with once it is classified. The calls are
// values in the slots, so a fan-out allocates nothing per call, and the
// reply channel is reused across dispatches.
type fanout struct {
	d      *Dispatcher
	calls  []pending
	status []int
	ch     chan ended
}

// fanoutChanCap is the pooled reply-channel capacity. Fan-outs wider
// than this (unusual redundancy levels) grow the pooled member's
// channel, which then stays at the larger capacity.
const fanoutChanCap = 8

var fanoutPool sync.Pool

// acquireFanout arms a pooled fan-out for one dispatch of n targets.
//
//wsu:owns return
func (d *Dispatcher) acquireFanout(n int) *fanout {
	f, ok := fanoutPool.Get().(*fanout)
	if !ok {
		f = &fanout{
			ch:     make(chan ended, fanoutChanCap),
			calls:  make([]pending, fanoutChanCap),
			status: make([]int, fanoutChanCap),
		}
	}
	if cap(f.ch) < n {
		f.ch = make(chan ended, n)
	}
	if cap(f.calls) < n {
		f.calls = make([]pending, n)
		f.status = make([]int, n)
	}
	f.calls, f.status = f.calls[:n], f.status[:n]
	f.d = d
	return f
}

// release recycles the fan-out. The caller must have received one reply
// per begun call, so every slot has been taken (take clears it) and the
// channel is empty (the runtime clears received slots, so the buffer
// retains no reply references).
//
//wsu:owns f
//wsu:noalloc
func (f *fanout) release() {
	f.d = nil
	fanoutPool.Put(f)
}

// hold parks target i's begun call in its slot until take hands it to
// the one goroutine that ends it.
//
//wsu:owns call
//wsu:allow poolcheck -- the slot carries the obligation from scatter to gather: take(i) passes it on to exactly one End
func (f *fanout) hold(i int, start time.Time, call wire.Call) {
	f.calls[i] = pending{call: call, start: start}
}

// take moves target i's call out of its slot; the caller ends it.
//
//wsu:owns return
func (f *fanout) take(i int) (wire.Call, time.Time) {
	p := f.calls[i]
	f.calls[i] = pending{}
	return p.call, p.start
}

// end finishes target i's call on the calling goroutine: the reply is
// read and its latency stamped here.
func (f *fanout) end(i int) ended {
	call, start := f.take(i)
	res, err := call.End()
	return ended{i, res, err, f.d.clock.Now().Sub(start)}
}

// classify turns in, ended, into its target's reply. A reply is a twin
// when its status and bytes are those of a valid sibling already in,
// whose payload lies in its own bytes: it takes the sibling's
// classification instead of being decoded, its Body the sibling's very
// payload (so the oracle finds the two equal by identity), and keeps its
// own latency, header and buffer. A twin's Body so aliases the sibling's
// buffer, which is released with it when the dispatch completes; a twin
// delivered to the consumer is moved into its own first (ownBody).
// Faults, errors and replies under another status are decoded.
//
//wsu:noalloc
func (f *fanout) classify(replies []adjudicate.Reply, targets []Endpoint, in ended) {
	f.status[in.i] = in.res.Status
	if in.err == nil {
		for k := range replies {
			s := &replies[k]
			if s.Release == "" || !s.Valid() || f.status[k] != in.res.Status || !bytes.Equal(s.Raw, in.res.Body) {
				continue
			}
			if _, ok := offsetIn(s.Raw, s.Body); ok {
				replies[in.i] = adjudicate.Reply{
					Release: targets[in.i].Version, Body: s.Body, Latency: in.latency,
					Header: in.res.Header, Raw: in.res.Body, Buf: in.res.BodyBuf,
				}
				return
			}
		}
	}
	replies[in.i] = f.d.classify(targets[in.i], in.res, in.err, in.latency)
}

// offsetIn returns where sub, not empty, starts in raw, when it is a
// window on raw's bytes.
//
//wsu:noalloc
func offsetIn(raw, sub []byte) (int, bool) {
	off := cap(raw) - cap(sub)
	if len(sub) == 0 || off < 0 || off > len(raw)-len(sub) || &raw[off] != &sub[0] {
		return 0, false
	}
	return off, true
}

// ownBody is the winner's Body in its own bytes: a twin's, which lies in
// the sibling it repeats, moved to the same place in its own Raw, so
// that the reference the winner keeps for the consumer write holds it.
//
//wsu:noalloc
func ownBody(winner adjudicate.Reply, replies []adjudicate.Reply) []byte {
	if len(winner.Body) == 0 {
		return winner.Body
	}
	if _, ok := offsetIn(winner.Raw, winner.Body); ok {
		return winner.Body
	}
	for _, r := range replies {
		if off, ok := offsetIn(r.Raw, winner.Body); ok {
			return winner.Raw[off : off+len(winner.Body)]
		}
	}
	return winner.Body
}

// ---------------------------------------------------------------------------
// Parked gatherers

// gatherJob is one call handed to a gatherer: call i of fan-out f.
type gatherJob struct {
	f *fanout
	i int
}

// maxParked bounds the gatherers a dispatcher keeps parked between
// dispatches. It is a bound on idle memory: each keeps its goroutine
// stack, grown by the reply reads it made (8 KiB), so the parked set
// stays under ≈ 0.5 MiB whatever the concurrency once was. A hand-off
// that finds none parked starts a gatherer, which parks after its call
// unless maxParked others already are.
const maxParked = 64

// handOff has call i of f ended by a parked gatherer or, when none is
// parked, by a fresh one.
func (d *Dispatcher) handOff(f *fanout, i int) {
	j := gatherJob{f, i}
	select {
	case d.jobs <- j:
	default:
		counted := d.enter()
		go d.gatherer(j, counted)
	}
}

// gatherer ends the call it was started for, then each call handed to
// it while parked, until Close or until maxParked others are parked.
// counted says whether Close waits for it (enter).
func (d *Dispatcher) gatherer(j gatherJob, counted bool) {
	if counted {
		defer d.wg.Done()
	}
	for {
		// The receiver can recycle j.f the moment the last reply is in,
		// so nothing here touches it after the send.
		j.f.ch <- j.f.end(j.i)
		if d.parked.Add(1) > maxParked {
			d.parked.Add(-1)
			return
		}
		select {
		case j = <-d.jobs:
			d.parked.Add(-1)
		case <-d.quit:
			d.parked.Add(-1)
			return
		}
	}
}

// doSequential implements §4.2 mode 4: releases execute one at a time;
// the next is invoked only on an evident failure of the previous, a
// timeout included.
func (d *Dispatcher) doSequential(req *Request, rule adjudicate.Adjudicator) (adjudicate.Reply, error) {
	targets := req.Targets
	called := getReplySlice(len(targets))[:0]
	gone := false
	for _, t := range targets {
		var r adjudicate.Reply
		r, gone = d.callRelease(t, req)
		called = append(called, r)
		if r.Valid() || gone {
			break
		}
	}
	collected := getReplySlice(len(called))[:0]
	for _, r := range called {
		if responded(r) {
			collected = append(collected, r)
		}
	}
	winner, err := d.deliver(rule, collected)
	putReplySlice(collected)
	winner.Buf.Retain() // keep the winner's body past the reply recycling
	// Targets are invoked in order, so the invoked prefix is targets[:k].
	d.complete(gone, req.Operation, targets[:len(called)], called, winner, req.Oldest, req.Newest, req.EnvelopeBuf)
	return winner, err
}

// beginCall starts ep's call through the transport seam.
//
//wsu:owns return
func (d *Dispatcher) beginCall(ctx context.Context, ep Endpoint, operation string, envelope []byte) wire.Call {
	return d.begin(ctx, d.codec.TargetURL(ep.URL, operation), d.contentType, envelope)
}

// callRelease invokes one release start to finish on the calling
// goroutine (sequential mode, and so every single-target dispatch),
// under a deadline of its own: the whole timeout, clipped by the
// consumer's deadline. gone reports that the consumer's own request
// context cancelled the call.
func (d *Dispatcher) callRelease(ep Endpoint, req *Request) (reply adjudicate.Reply, gone bool) {
	ctx := acquireCallCtx(d.clock, req.Parent, req.Timeout)
	start := d.clock.Now()
	call := d.beginCall(ctx, ep, req.Operation, req.Envelope)
	res, err := call.End()
	reply = d.classify(ep, res, err, d.clock.Now().Sub(start))
	return reply, ctx.release()
}

// classify turns one ended call into its reply through the protocol
// codec: a successful payload, a protocol fault (an evident failure that
// still counts as a response), or a transport or classification error
// wrapped with release context.
//
// Ownership: the transport's pooled response buffer (Result.BodyBuf)
// travels on in Reply.Buf whether or not the codec's payload aliases
// it: the reply's header block lies in it behind the body, and the
// oracle reads that when the dispatch completes.
func (d *Dispatcher) classify(ep Endpoint, res httpx.Result, err error, latency time.Duration) adjudicate.Reply {
	reply := adjudicate.Reply{Release: ep.Version, Latency: latency}
	if err != nil {
		reply.Err = fmt.Errorf("dispatch: release %s: %w", ep.Version, err)
		return reply
	}
	reply.Header = res.Header
	reply.Raw = res.Body
	reply.Buf = res.BodyBuf
	payload, _, derr := d.codec.DecodeReply(res.Status, res.Body)
	if derr != nil {
		if protocol.IsFault(derr) {
			reply.Err = derr
		} else {
			reply.Err = fmt.Errorf("dispatch: release %s: %w", ep.Version, derr)
		}
		return reply
	}
	reply.Body = payload
	return reply
}

// ---------------------------------------------------------------------------
// Per-dispatch reply slice recycling

// replySlices recycles the reply scratch slices of Do (see pool.Slice
// for the zero-allocation cycle). Fan-outs are small (a handful of
// releases), so the slices are tiny but allocated twice per consumer
// request; pooling removes them from the hot path. A slice must only be
// returned once nothing aliases it: the winner is a value copy,
// adjudicators must not retain replies, and the outcome hook must not
// retain the slice.
var replySlices pool.Slice[adjudicate.Reply]

// getReplySlice returns a length-n scratch slice of zero Replies
// (putReplySlice clears recycled backing before pooling it).
//
//wsu:owns return
func getReplySlice(n int) []adjudicate.Reply {
	return replySlices.Get(n)[:n]
}

//wsu:owns s
//wsu:noalloc
func putReplySlice(s []adjudicate.Reply) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = adjudicate.Reply{} // drop body/header references
	}
	replySlices.Put(s)
}

// Responded reports whether an exchange produced an application-level
// response (a protocol fault counts; a timeout or transport error does
// not — the §5.2.1 evident-failure distinction).
func Responded(r adjudicate.Reply) bool { return responded(r) }

func responded(r adjudicate.Reply) bool {
	return r.Valid() || protocol.IsFault(r.Err)
}

// authority is the index among targets of the release rule delivers
// whenever its reply is valid (adjudicate.Preferred's), or -1.
func authority(rule adjudicate.Adjudicator, targets []Endpoint) int {
	if p, ok := rule.(adjudicate.Preferred); ok {
		for i, t := range targets {
			if t.Version == p.Release {
				return i
			}
		}
	}
	return -1
}

func anyValid(replies []adjudicate.Reply) bool {
	for _, r := range replies {
		if r.Release != "" && r.Valid() {
			return true
		}
	}
	return false
}
