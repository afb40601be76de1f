package fleet

// The hub behind GET /fleet/events (sse.go): a small in-process pub/sub
// that fans campaign events (phase transitions, release changes,
// confidence updates) out to SSE subscribers. The design constraint is
// the same one the paper's monitoring architecture imposes everywhere:
// the observed system must never block on its observers. Publishing is
// non-blocking — each subscriber has a bounded buffer, and a subscriber
// that cannot keep up loses events (counted per subscriber) instead of
// applying backpressure to the campaign that produced them.

import (
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// event is one campaign event, already shaped for the SSE wire: the
// payload is marshaled once at publish time, not per subscriber.
type event struct {
	// ID is the hub-assigned monotonic sequence number. On the wire it
	// goes with the hub's epoch (eventHub.wireID).
	ID uint64
	// Type names the event ("phase", "release", "confidence", ...).
	Type string
	// Data is the JSON payload.
	Data []byte
}

// defaultEventBuffer is the per-subscriber buffer when subscribeFrom is
// given a non-positive size.
const defaultEventBuffer = 64

// eventHistory is how many published events the hub retains for resume
// (Last-Event-ID replay). The ring is bounded for the same reason
// subscriber buffers are: observers must never grow the observed
// system's memory without bound.
const eventHistory = 256

// subscription is one subscriber's bounded event feed.
type subscription struct {
	// ch delivers events. Closed by cancel or the hub's close (never by
	// drops).
	ch      chan event
	dropped atomic.Uint64
	hub     *eventHub
}

// Dropped reports how many events this subscriber lost to a full
// buffer. The SSE handler surfaces it so a consumer knows its view has
// gaps and can re-sync from the pull API.
func (s *subscription) Dropped() uint64 { return s.dropped.Load() }

// Cancel removes the subscription and closes its channel. Safe to call
// concurrently with publishes and more than once.
func (s *subscription) Cancel() { s.hub.cancel(s) }

// eventHub fans events out to subscribers. Construct with newEventHub.
// Methods are safe for concurrent use.
type eventHub struct {
	mu     sync.Mutex
	subs   map[*subscription]struct{}
	seq    uint64
	closed bool

	// epoch tells this hub's event ids from another hub's — the same
	// fleet's before a restart above all, whose numbering began at 1
	// too. A wire id is "<epoch>-<seq>".
	epoch string

	// ring retains the last len(ring) published events (ring[(ID-1) %
	// len(ring)]) so a reconnecting subscriber can resume from its
	// Last-Event-ID instead of re-synchronizing from scratch. Event
	// payloads are immutable after publish, so retained events alias
	// the published ones.
	ring []event
}

// newEventHub returns an empty hub retaining eventHistory events for
// Last-Event-ID resume.
func newEventHub() *eventHub {
	return &eventHub{
		subs:  make(map[*subscription]struct{}),
		ring:  make([]event, eventHistory),
		epoch: strconv.FormatInt(time.Now().UnixNano(), 36),
	}
}

// wireID is the SSE id of this hub's event seq: "<epoch>-<seq>".
func (h *eventHub) wireID(seq uint64) string {
	return h.epoch + "-" + strconv.FormatUint(seq, 10)
}

// seqOf reads a Last-Event-ID. An id this hub issued gives its
// sequence number. An id of another epoch, or a bare decimal one from
// before ids carried an epoch, gives math.MaxUint64, which no replay
// can resume from: whatever its number, this hub did not number it. An
// id of neither form is an error.
func (h *eventHub) seqOf(id string) (uint64, error) {
	epoch, seq, found := strings.Cut(id, "-")
	if !found {
		seq = epoch
	}
	n, err := strconv.ParseUint(seq, 10, 64)
	if err != nil {
		return 0, err
	}
	if !found || epoch != h.epoch {
		return math.MaxUint64, nil
	}
	return n, nil
}

func (h *eventHub) cancel(sub *subscription) {
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
func (h *eventHub) Publish(eventType string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	h.mu.Lock()
	h.seq++
	ev := event{ID: h.seq, Type: eventType, Data: data}
	h.ring[(ev.ID-1)%uint64(len(h.ring))] = ev
	for sub := range h.subs {
		select {
		case sub.ch <- ev:
		default:
			sub.dropped.Add(1)
		}
	}
	h.mu.Unlock()
}

// replayLocked collects retained events with ID > lastID in publish
// order, reporting whether the replay is complete — false when events
// between lastID and the oldest retained one were evicted from the
// bounded ring, and false when lastID is past the last event this hub
// numbered (seqOf's answer for an id another hub issued): the caller's
// view then has a gap no replay can close. Callers hold h.mu.
func (h *eventHub) replayLocked(lastID uint64) ([]event, bool) {
	if lastID > h.seq {
		return nil, false
	}
	if lastID == h.seq {
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
	out := make([]event, 0, h.seq-start+1)
	for id := start; id <= h.seq; id++ {
		out = append(out, h.ring[(id-1)%uint64(len(h.ring))])
	}
	return out, complete
}

// SubscribeFrom registers a subscriber with a buffer of size events
// (defaultEventBuffer when size <= 0) and atomically returns the replay
// of events after lastID: no event published between the replay
// snapshot and the registration can be missed or duplicated. The
// boolean reports whether the replay is complete (see replayLocked). On
// a closed hub the subscription's channel is already closed and the
// replay is empty.
func (h *eventHub) SubscribeFrom(size int, lastID uint64) (*subscription, []event, bool) {
	if size <= 0 {
		size = defaultEventBuffer
	}
	sub := &subscription{ch: make(chan event, size), hub: h}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		close(sub.ch)
		return sub, nil, true
	}
	replay, complete := h.replayLocked(lastID)
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	return sub, replay, complete
}

// Close closes every subscription channel and rejects future
// subscribers.
func (h *eventHub) Close() {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return
	}
	h.closed = true
	subs := h.subs
	h.subs = make(map[*subscription]struct{})
	h.mu.Unlock()
	for sub := range subs {
		close(sub.ch)
	}
}
