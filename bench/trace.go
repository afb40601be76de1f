package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// Span kinds, in the order a mediated demand meets them.
const (
	spanClientDemand = iota
	spanFleetHandler
	spanDecodeRequest
	spanWireCall
	spanReleaseHandler
	spanDecodeReply
	spanOracleJudge
	spanEqual
	spanAdjudicate
	spanWriteBody
	spanKinds
)

var spanNames = [spanKinds]string{
	"client.demand", "fleet.handler", "protocol.decode_request", "wire.call",
	"release.handler", "protocol.decode_reply", "oracle.judge", "protocol.equal",
	"adjudicate.adjudicate", "protocol.write_body",
}

// Ledger layers: every instant of a traced demand is charged to exactly
// one of them, so their means add up to the demand's latency.
const (
	layerInbound = iota // consumer ↔ net/http server ↔ handler entry
	layerCore           // core + dispatch + monitor + bounded reads + pools: the handler's residual
	layerProtocol
	layerWire // wire client, loopback, and the stub's net/http server
	layerRelease
	layerOracle
	layerAdjudicate
	layers
)

var layerNames = [layers]string{"inbound", "core", "protocol", "wire", "release", "oracle", "adjudicate"}

var layerOf = [spanKinds]int{
	spanClientDemand: layerInbound, spanFleetHandler: layerCore,
	spanDecodeRequest: layerProtocol, spanDecodeReply: layerProtocol,
	spanEqual: layerProtocol, spanWriteBody: layerProtocol,
	spanWireCall: layerWire, spanReleaseHandler: layerRelease,
	spanOracleJudge: layerOracle, spanAdjudicate: layerAdjudicate,
}

// noLane marks a span that belongs to no one release.
const noLane = -1

type span struct {
	kind       uint8
	lane       int8
	start, end int64 // ns since the recorder's base
}

// keptSpan is a span as written to the trace file.
type keptSpan struct {
	span
	demand uint32
	parent int32 // index among the demand's spans, -1 for the root
}

const (
	// maxDemandSpans bounds one demand's spans; the deepest workload
	// records 13.
	maxDemandSpans = 32
	// keepDemands bounds the trace file: the first demands of the traced
	// phase are written out, every demand feeds the means.
	keepDemands = 4000
)

// recorder collects the spans of the traced phase. That phase keeps one
// demand in flight, so the demand the consumer opened last owns every
// span recorded until it closes — no identifier crosses the program
// under test. A mutex orders the decorators' goroutines (fan-out calls,
// the stubs' servers) with the consumer's.
//
// All methods are safe on a nil recorder and do nothing there, which is
// how untraced deployments share the decorated types' code paths.
type recorder struct {
	mu   sync.Mutex
	base time.Time
	open bool // a demand is open: spans are recorded

	n     int
	spans [maxDemandSpans]span

	demands  int64
	overflow int64 // demands that recorded more than maxDemandSpans
	// unclosed counts spans still open when their demand closed: a
	// server goroutine descheduled between its last write and its span's
	// end. Such a span is charged up to the demand's end, and its late
	// end is dropped.
	unclosed  int64
	count     [spanKinds]int64
	duration  [spanKinds]int64
	bytes     [spanKinds]int64
	self      [layers]int64
	handlerNs []int64 // fleet.handler durations, for the p99
	wireNs    []int64 // wire.call durations

	// wire counters, fed by the traced connections
	dials, wireWrites, wireReads, wireBytes int64

	kept        []keptSpan
	keptDemands int
	scratch     attribution
}

func newRecorder(expectDemands int) *recorder {
	return &recorder{
		base:      time.Now(),
		handlerNs: make([]int64, 0, expectDemands),
		wireNs:    make([]int64, 0, 2*expectDemands),
		kept:      make([]keptSpan, 0, keepDemands*16),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// begin opens a span in the current demand and returns its handle, or
// -1 when nothing is being recorded. A handle names its demand, so that
// an end arriving after the demand closed cannot touch the next one.
func (r *recorder) begin(kind, lane, bytes int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.beginLocked(kind, lane, bytes)
}

func (r *recorder) beginLocked(kind, lane, bytes int) int {
	if !r.open {
		return -1
	}
	r.count[kind]++
	r.bytes[kind] += int64(bytes)
	if r.n >= maxDemandSpans {
		r.n = maxDemandSpans + 1 // counted as an overflow when the demand closes
		return -1
	}
	i := r.n
	r.n++
	r.spans[i] = span{kind: uint8(kind), lane: int8(lane), start: r.now(), end: -1}
	return int(r.demands+1)*handleSpans + i
}

// handleSpans is the radix of span handles: demand number, then index.
const handleSpans = 2 * maxDemandSpans

// slot resolves a handle to its span, or nil when the handle's demand is
// no longer the open one.
func (r *recorder) slot(handle int) *span {
	if handle < 0 || !r.open || int64(handle/handleSpans) != r.demands+1 {
		return nil
	}
	return &r.spans[handle%handleSpans]
}

// end closes the span begin returned.
func (r *recorder) end(handle int) {
	if r == nil || handle < 0 {
		return
	}
	r.mu.Lock()
	if s := r.slot(handle); s != nil {
		s.end = r.now()
	}
	r.mu.Unlock()
}

func (r *recorder) dialed() {
	r.mu.Lock()
	r.dials++
	r.mu.Unlock()
}

// connWrite and connRead turn one connection's traffic into wire.call
// spans: a demand's first write on a connection opens the call, and —
// since a connection cannot know which read is a reply's last — every
// read moves the call's end to now.
func (r *recorder) connWrite(c *tracedConn, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.open {
		return
	}
	if current := r.demands + 1; c.demand != current {
		c.demand = current
		c.span = r.beginLocked(spanWireCall, c.lane, 0)
	}
	r.wireWrites++
	r.wireBytes += int64(bytes)
}

func (r *recorder) connRead(c *tracedConn, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.open || c.demand != r.demands+1 {
		return
	}
	if s := r.slot(c.span); s != nil {
		s.end = r.now()
	}
	r.wireReads++
	r.wireBytes += int64(bytes)
}

// beginDemand opens the next demand and its root span.
func (r *recorder) beginDemand() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.open = true
	r.n = 1
	r.count[spanClientDemand]++
	r.spans[0] = span{kind: spanClientDemand, lane: noLane, start: r.now(), end: -1}
	r.mu.Unlock()
}

// endDemand closes the root span and folds the demand into the means.
func (r *recorder) endDemand() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.open {
		return
	}
	r.open = false
	r.spans[0].end = r.now()
	r.demands++
	n := r.n
	if n > maxDemandSpans {
		r.overflow++
		n = maxDemandSpans
	}
	spans := r.spans[:n]
	for i := range spans {
		s := &spans[i]
		if s.end < 0 {
			r.unclosed++
			s.end = spans[0].end
		}
		d := s.end - s.start
		r.duration[s.kind] += d
		switch s.kind {
		case spanFleetHandler:
			r.handlerNs = append(r.handlerNs, d)
		case spanWireCall:
			r.wireNs = append(r.wireNs, d)
		}
	}
	self := r.scratch.attribute(spans)
	for i := range spans {
		r.self[layerOf[spans[i].kind]] += self[i]
	}
	if r.keptDemands < keepDemands && len(r.kept)+n <= cap(r.kept) {
		r.keptDemands++
		for i := range spans {
			r.kept = append(r.kept, keptSpan{span: spans[i], demand: uint32(r.demands), parent: int32(parentOf(spans, i))})
		}
	}
}

// attribution is the scratch space of attribute, kept between demands
// so that the consumer's bookkeeping does not allocate.
type attribution struct {
	cuts []int64
	self []int64
}

// attribute charges every instant of the root span (spans[0]) to exactly
// one span — the one that started last among those open at that instant
// — and returns each span's share: its self time. For properly nested
// spans that is a span's duration minus its children's; where fan-out
// calls overlap, the overlap is charged once, to the call that started
// later, so the shares always add up to the root's duration.
func (a *attribution) attribute(spans []span) []int64 {
	a.cuts = a.cuts[:0]
	a.self = a.self[:0]
	root := spans[0]
	for _, s := range spans {
		a.cuts = append(a.cuts, clamp(s.start, root), clamp(s.end, root))
		a.self = append(a.self, 0)
	}
	slices.Sort(a.cuts)
	for c := 0; c+1 < len(a.cuts); c++ {
		from, to := a.cuts[c], a.cuts[c+1]
		if from == to {
			continue
		}
		owner := 0
		for i, s := range spans {
			if s.start <= from && to <= s.end && s.start >= spans[owner].start {
				owner = i
			}
		}
		a.self[owner] += to - from
	}
	return a.self
}

func clamp(t int64, root span) int64 {
	return min(max(t, root.start), root.end)
}

// parentOf finds the span that encloses spans[i] most tightly: of those
// whose interval contains it — and whose release agrees, when both
// belong to one — the one that started last.
func parentOf(spans []span, i int) int {
	s := spans[i]
	parent := -1
	for j, p := range spans {
		if j == i || p.start > s.start || p.end < s.end {
			continue
		}
		if p.start == s.start && p.end == s.end && j > i {
			continue // identical intervals: the earlier-recorded is the parent
		}
		if s.lane != noLane && p.lane != noLane && p.lane != s.lane {
			continue
		}
		if parent < 0 || p.start >= spans[parent].start {
			parent = j
		}
	}
	return parent
}

// writeTrace writes the kept spans as JSON lines.
func (r *recorder) writeTrace(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	first := 0 // index in r.kept of the current demand's first span
	for i, s := range r.kept {
		if i > 0 && s.demand != r.kept[i-1].demand {
			first = i
		}
		fmt.Fprintf(w, `{"demand":%d,"span":%d,"parent":%d,"name":%q,"release":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			s.demand, i-first, s.parent, spanNames[s.kind], s.lane, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
