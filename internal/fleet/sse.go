package fleet

// GET /fleet/events — the push control plane's wire surface: campaign
// events streamed as Server-Sent Events. Token-guarded like the rest of
// the admin API. The stream opens with one "status" event per unit (the
// subscriber's synchronization point), then delivers "phase",
// "release", "confidence" and "journal" events as they happen. A
// subscriber that cannot keep up loses events — the campaign never
// blocks on its observers — and the stream says so with a "drops" event
// carrying the running count, so the consumer knows to re-sync from the
// pull API (GET /fleet/units).
//
// Reconnects resume: a client that presents the standard Last-Event-ID
// header gets the events it missed replayed from the hub's bounded
// history instead of a fresh status burst. An event id carries the
// hub's epoch ("<epoch>-<seq>"). When the gap exceeds the history, or
// the id is another hub's (one issued before a restart, whatever its
// number), the stream says so with a "resync" event and falls back to
// the status burst.

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"wsupgrade/internal/httpx"
)

// sseHeartbeat is the idle keep-alive cadence: a comment frame that
// lets both ends notice a dead connection.
const sseHeartbeat = 15 * time.Second

// maxEventBuffer caps the per-subscriber buffer a client may request
// with ?buffer=N.
const maxEventBuffer = 4096

// handleEvents serves GET /fleet/events.
func (f *Fleet) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", httpx.NotAllowed(w, http.MethodGet))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "fleet: event stream needs a flushing writer", http.StatusNotImplemented)
		return
	}
	size := 0
	if s := r.URL.Query().Get("buffer"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 || n > maxEventBuffer {
			http.Error(w, fmt.Sprintf("fleet: buffer must be 1..%d", maxEventBuffer), http.StatusBadRequest)
			return
		}
		size = n
	}

	resume := false
	var lastID uint64 = math.MaxUint64 // a fresh stream replays nothing
	presented := r.Header.Get("Last-Event-ID")
	if presented != "" {
		n, err := f.hub.seqOf(presented)
		if err != nil {
			http.Error(w, "fleet: Last-Event-ID must be an event id of this stream", http.StatusBadRequest)
			return
		}
		lastID, resume = n, true
	}

	sub, replay, complete := f.hub.SubscribeFrom(size, lastID)
	defer sub.Cancel()

	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no") // proxies must not coalesce the stream
	w.WriteHeader(http.StatusOK)

	if resume && complete {
		// Resumed stream: replay what the subscriber missed, with the
		// original ids, instead of a fresh status burst.
		for _, ev := range replay {
			if !writeSSE(w, f.hub.wireID(ev.ID), ev.Type, ev.Data) {
				return
			}
		}
	} else {
		if resume {
			// The gap outran the bounded history, or another hub
			// issued the id — the subscriber's view cannot be repaired
			// by replay, so say so and re-synchronize.
			if !writeSSE(w, "", "resync", mustJSON(map[string]string{"lastEventId": presented})) {
				return
			}
		}
		// Synchronization point: the current status of every unit, then any
		// journal notes (quarantines, failed restores) from startup.
		for _, st := range f.status(false) {
			if !writeSSE(w, "", "status", mustJSON(st)) {
				return
			}
		}
		for _, note := range f.journalNotes {
			if !writeSSE(w, "", "journal", mustJSON(note)) {
				return
			}
		}
	}
	flusher.Flush()

	heartbeat := time.NewTicker(sseHeartbeat)
	defer heartbeat.Stop()
	var reported uint64
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, open := <-sub.ch:
			if !open {
				return // fleet closed
			}
			if !writeSSE(w, f.hub.wireID(ev.ID), ev.Type, ev.Data) {
				return
			}
			// Gap accounting: tell the subscriber how many events its
			// buffer has lost so far, once per increase.
			if d := sub.Dropped(); d > reported {
				reported = d
				if !writeSSE(w, "", "drops", mustJSON(map[string]uint64{"dropped": d})) {
					return
				}
			}
			flusher.Flush()
		case <-heartbeat.C:
			if _, err := fmt.Fprint(w, ": heartbeat\n\n"); err != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// writeSSE writes one SSE frame (an empty id omits the id field, for
// frames outside the hub's sequence). Reports whether the write
// succeeded.
func writeSSE(w http.ResponseWriter, id string, event string, data []byte) bool {
	if id != "" {
		if _, err := fmt.Fprintf(w, "id: %s\n", id); err != nil {
			return false
		}
	}
	_, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
	return err == nil
}

// mustJSON marshals values whose types cannot fail to marshal.
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return []byte(`{}`)
	}
	return data
}
