package events

import (
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestPublishDelivers(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sub := h.Subscribe(8)
	h.Publish("phase", map[string]string{"unit": "flights", "to": "parallel"})
	select {
	case ev := <-sub.C:
		if ev.Type != "phase" || ev.ID != 1 {
			t.Fatalf("got %+v", ev)
		}
		var m map[string]string
		if err := json.Unmarshal(ev.Data, &m); err != nil || m["unit"] != "flights" {
			t.Fatalf("payload %q err %v", ev.Data, err)
		}
	case <-time.After(time.Second):
		t.Fatal("event not delivered")
	}
}

// A slow subscriber must lose events — with accounting — while fast
// subscribers and the publisher are unaffected.
func TestSlowSubscriberDropsNotBlocks(t *testing.T) {
	h := NewHub()
	defer h.Close()
	slow := h.Subscribe(2)
	fast := h.Subscribe(64)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			h.Publish("confidence", i) // must never block on `slow`
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Publish blocked on a full subscriber buffer")
	}

	if got := slow.Dropped(); got != 8 {
		t.Fatalf("slow subscriber Dropped = %d, want 8", got)
	}
	if got := h.DropsTotal(); got != 8 {
		t.Fatalf("hub DropsTotal = %d, want 8", got)
	}
	for i := 0; i < 10; i++ {
		select {
		case ev := <-fast.C:
			if ev.ID != uint64(i+1) {
				t.Fatalf("fast subscriber event %d has ID %d", i, ev.ID)
			}
		case <-time.After(time.Second):
			t.Fatalf("fast subscriber missing event %d", i)
		}
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	h := NewHub()
	defer h.Close()
	sub := h.Subscribe(4)
	sub.Cancel()
	sub.Cancel() // idempotent
	if _, open := <-sub.C; open {
		t.Fatal("canceled subscription channel still open")
	}
	h.Publish("phase", 1) // must not panic on the canceled sub
	h.mu.Lock()
	n := len(h.subs)
	h.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d subscribers after cancel", n)
	}
}

func TestCloseClosesSubscribers(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(4)
	h.Close()
	if _, open := <-sub.C; open {
		t.Fatal("subscription open after hub Close")
	}
	// Post-close operations are calm no-ops.
	h.Publish("phase", 1)
	h.Close()
	late := h.Subscribe(4)
	if _, open := <-late.C; open {
		t.Fatal("subscription on a closed hub is open")
	}
}

func TestConcurrentPublishSubscribeCancel(t *testing.T) {
	h := NewHub()
	defer h.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				h.Publish("phase", i)
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				sub := h.Subscribe(1)
				// Drain a little, then leave.
				select {
				case <-sub.C:
				default:
				}
				sub.Cancel()
			}
		}()
	}
	wg.Wait()
}

// replayFrom is SubscribeFrom's replay alone.
func replayFrom(h *Hub, lastID uint64) ([]Event, bool) {
	sub, replay, complete := h.SubscribeFrom(1, lastID)
	sub.Cancel()
	return replay, complete
}

// A resume replays the retained suffix in order and reports whether the
// bounded ring still covers the requested resume point.
func TestReplayFrom(t *testing.T) {
	h := NewHub()
	defer h.Close()
	for i := 0; i < 5; i++ {
		h.Publish("phase", i)
	}
	replay, complete := replayFrom(h, 2)
	if !complete || len(replay) != 3 {
		t.Fatalf("replay from 2 = %d events, complete=%v", len(replay), complete)
	}
	for i, ev := range replay {
		if ev.ID != uint64(3+i) || ev.Type != "phase" {
			t.Fatalf("replay[%d] = %+v", i, ev)
		}
	}
	if replay, complete := replayFrom(h, 5); !complete || len(replay) != 0 {
		t.Fatalf("replay at head = %d events, complete=%v", len(replay), complete)
	}
	if replay, complete := replayFrom(h, 99); !complete || len(replay) != 0 {
		t.Fatalf("replay beyond head = %d events, complete=%v", len(replay), complete)
	}
}

// The history is a bounded ring: once a resume point is evicted, replay
// returns what is retained and reports the gap.
func TestReplayEviction(t *testing.T) {
	h := NewHubHistory(4)
	defer h.Close()
	for i := 0; i < 10; i++ {
		h.Publish("phase", i)
	}
	replay, complete := replayFrom(h, 0)
	if complete || len(replay) != 4 {
		t.Fatalf("replay from 0 = %d events, complete=%v; want 4, false", len(replay), complete)
	}
	if replay[0].ID != 7 || replay[3].ID != 10 {
		t.Fatalf("retained window [%d..%d], want [7..10]", replay[0].ID, replay[3].ID)
	}
	if replay, complete := replayFrom(h, 6); !complete || len(replay) != 4 {
		t.Fatalf("replay from oldest-1 = %d events, complete=%v", len(replay), complete)
	}
	if _, complete := replayFrom(h, 5); complete {
		t.Fatal("replay from 5 claims completeness across an evicted event")
	}
}

// SubscribeFrom is atomic with respect to publishes: replay plus live
// delivery covers every event exactly once, under concurrent
// publishing.
func TestSubscribeFromNoGapNoDup(t *testing.T) {
	h := NewHub()
	defer h.Close()
	const total = 200
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < total; i++ {
			h.Publish("n", i)
		}
	}()
	// Subscribe mid-stream from ID 0 with room for everything.
	sub, replay, complete := h.SubscribeFrom(total, 0)
	defer sub.Cancel()
	if !complete {
		t.Fatal("resume from 0 within history reported a gap")
	}
	next := uint64(1)
	for _, ev := range replay {
		if ev.ID != next {
			t.Fatalf("replay out of order: got %d want %d", ev.ID, next)
		}
		next++
	}
	<-done
	deadline := time.After(5 * time.Second)
	for next <= total {
		select {
		case ev := <-sub.C:
			if ev.ID != next {
				t.Fatalf("live delivery: got %d want %d", ev.ID, next)
			}
			next++
		case <-deadline:
			t.Fatalf("stalled at event %d", next)
		}
	}
}

func TestSubscribeFromClosedHub(t *testing.T) {
	h := NewHub()
	h.Publish("phase", 1)
	h.Close()
	sub, replay, _ := h.SubscribeFrom(0, 0)
	if len(replay) != 0 {
		t.Fatalf("closed hub replayed %d events", len(replay))
	}
	if _, open := <-sub.C; open {
		t.Fatal("closed hub returned an open subscription")
	}
}
