// Package events is the push side of the management control plane: a
// small in-process pub/sub hub that fans campaign events (phase
// transitions, release changes, confidence updates) out to SSE
// subscribers. The design constraint is the same one the paper's
// monitoring architecture imposes everywhere: the observed system must
// never block on its observers. Publishing is non-blocking — each
// subscriber has a bounded buffer, and a subscriber that cannot keep up
// loses events (counted per subscriber and hub-wide) instead of
// applying backpressure to the campaign that produced them.
package events

import (
	"encoding/json"
	"math"
	"sync"
	"sync/atomic"
)

// Event is one campaign event, already shaped for the SSE wire: the
// payload is marshaled once at publish time, not per subscriber.
type Event struct {
	// ID is the hub-assigned monotonic sequence number.
	ID uint64
	// Type names the event ("phase", "release", "confidence", ...).
	Type string
	// Data is the JSON payload.
	Data []byte
}

// DefaultBuffer is the per-subscriber buffer when Subscribe is given a
// non-positive size.
const DefaultBuffer = 64

// DefaultHistory is how many published events the hub retains for
// resume (Last-Event-ID replay). The ring is bounded for the same
// reason subscriber buffers are: observers must never grow the
// observed system's memory without bound.
const DefaultHistory = 256

// Subscription is one subscriber's bounded event feed.
type Subscription struct {
	// C delivers events. Closed by Hub.Close (never by drops).
	C <-chan Event

	ch      chan Event
	dropped atomic.Uint64
	hub     *Hub
}

// Dropped reports how many events this subscriber lost to a full
// buffer. SSE handlers surface it so a consumer knows its view has
// gaps and can re-sync from the pull API.
func (s *Subscription) Dropped() uint64 { return s.dropped.Load() }

// Cancel removes the subscription and closes its channel. Safe to call
// concurrently with publishes and more than once.
func (s *Subscription) Cancel() { s.hub.cancel(s) }

// Hub fans events out to subscribers. The zero value is not usable;
// construct with NewHub. Methods are safe for concurrent use.
type Hub struct {
	mu     sync.Mutex
	subs   map[*Subscription]struct{}
	seq    uint64
	closed bool

	// ring retains the last len(ring) published events (ring[(ID-1) %
	// len(ring)]) so a reconnecting subscriber can resume from its
	// Last-Event-ID instead of re-synchronizing from scratch. Event
	// payloads are immutable after publish, so retained events alias
	// the published ones.
	ring []Event

	// dropsTotal counts events lost across every subscriber (drop
	// accounting for the admin surface).
	dropsTotal atomic.Uint64
}

// NewHub returns an empty hub retaining DefaultHistory events for
// resume.
func NewHub() *Hub {
	return NewHubHistory(DefaultHistory)
}

// NewHubHistory returns an empty hub retaining up to history published
// events for Last-Event-ID resume (DefaultHistory when history <= 0).
func NewHubHistory(history int) *Hub {
	if history <= 0 {
		history = DefaultHistory
	}
	return &Hub{
		subs: make(map[*Subscription]struct{}),
		ring: make([]Event, history),
	}
}

// Subscribe registers a subscriber with a buffer of size events
// (DefaultBuffer when size <= 0): SubscribeFrom without the replay. On a
// closed hub it returns a subscription whose channel is already closed.
func (h *Hub) Subscribe(size int) *Subscription {
	sub, _, _ := h.SubscribeFrom(size, math.MaxUint64)
	return sub
}

func (h *Hub) cancel(sub *Subscription) {
	h.mu.Lock()
	_, live := h.subs[sub]
	if live {
		delete(h.subs, sub)
	}
	h.mu.Unlock()
	if live {
		close(sub.ch)
	}
}

// Publish marshals payload once and delivers the event to every
// subscriber that has buffer room; subscribers without room lose it
// (counted, never blocking). A marshal failure drops the event
// entirely — the control plane is advisory, the campaign is not.
func (h *Hub) Publish(eventType string, payload any) {
	if h == nil {
		return
	}
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	h.mu.Lock()
	h.seq++
	ev := Event{ID: h.seq, Type: eventType, Data: data}
	h.ring[(ev.ID-1)%uint64(len(h.ring))] = ev
	for sub := range h.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
			h.dropsTotal.Add(1)
		}
	}
	h.mu.Unlock()
}

// replayLocked collects retained events with ID > lastID in publish
// order, reporting whether the replay is complete — false when events
// between lastID and the oldest retained one were evicted from the
// bounded ring, so the caller knows its view has a gap. Callers hold
// h.mu.
func (h *Hub) replayLocked(lastID uint64) ([]Event, bool) {
	if lastID >= h.seq {
		return nil, true
	}
	retained := h.seq
	if max := uint64(len(h.ring)); retained > max {
		retained = max
	}
	oldest := h.seq - retained + 1
	start := lastID + 1
	complete := start >= oldest
	if !complete {
		start = oldest
	}
	out := make([]Event, 0, h.seq-start+1)
	for id := start; id <= h.seq; id++ {
		out = append(out, h.ring[(id-1)%uint64(len(h.ring))])
	}
	return out, complete
}

// SubscribeFrom registers a subscriber with a buffer of size events
// (DefaultBuffer when size <= 0) and atomically returns the replay of
// events after lastID: no event published between the replay snapshot
// and the registration can be missed or duplicated. The boolean reports
// whether the replay is complete: false when events after lastID were
// already evicted from the bounded history. On a closed hub the
// subscription's channel is already closed and the replay is empty.
func (h *Hub) SubscribeFrom(size int, lastID uint64) (*Subscription, []Event, bool) {
	if size <= 0 {
		size = DefaultBuffer
	}
	ch := make(chan Event, size)
	sub := &Subscription{C: ch, ch: ch, hub: h}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		close(ch)
		return sub, nil, true
	}
	replay, complete := h.replayLocked(lastID)
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	return sub, replay, complete
}

// DropsTotal reports events lost across all subscribers since the hub
// was created.
func (h *Hub) DropsTotal() uint64 {
	if h == nil {
		return 0
	}
	return h.dropsTotal.Load()
}

// Close closes every subscription channel and rejects future
// subscribers. Publishes after Close are no-ops.
func (h *Hub) Close() {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	subs := h.subs
	h.subs = make(map[*Subscription]struct{})
	h.mu.Unlock()
	for sub := range subs {
		close(sub.ch)
	}
}
