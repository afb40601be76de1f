package fleet

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"wsupgrade/internal/bayes"
	"wsupgrade/internal/core"
	"wsupgrade/internal/events"
	"wsupgrade/internal/journal"
	"wsupgrade/internal/monitor"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/service"
)

// driveUnitJoint feeds n joint observations straight into a unit's
// monitor, standing in for live parallel traffic.
func driveUnitJoint(u *Unit, n int) {
	for i := 0; i < n; i++ {
		joint := bayes.NeitherFails
		if i%13 == 0 {
			joint = bayes.BOnlyFails
		}
		u.Engine().Monitor().Note(monitor.Record{
			Time:      time.Unix(int64(i), 0),
			Operation: "add",
			Releases: []monitor.Observation{
				{Release: "1.0", Responded: true, Latency: 9 * time.Millisecond},
				{Release: "1.1", Responded: true, Latency: 11 * time.Millisecond},
			},
			Winner: "1.0",
			Joint:  joint,
		})
	}
}

// waitForSnapshot polls one unit's journal until a snapshot with at
// least wantN joint demands has been persisted.
func waitForSnapshot(t *testing.T, path string, wantN int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		data, err := os.ReadFile(path)
		if err == nil {
			if st, _, derr := journal.Decode(data); derr == nil && st.Snapshot != nil &&
				st.Snapshot.Campaign.Joint.N >= wantN {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no snapshot with N >= %d in %s", wantN, path)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// A fleet restarted onto the same journal directory resumes every
// unit's phase and posterior.
func TestJournalPersistsAcrossFleetRestart(t *testing.T) {
	dir := t.TempDir()
	journaled := func(cfg *Config) {
		cfg.JournalDir = dir
		cfg.SnapshotInterval = 20 * time.Millisecond
		cfg.Units[0].Engine.InitialPhase = core.PhaseObservation
		cfg.Units[0].Engine.Inference = testInference()
	}

	f1, _ := twoUnitFleet(t, journaled)
	flights, err := f1.Unit("flights")
	if err != nil {
		t.Fatal(err)
	}
	driveUnitJoint(flights, 120)
	waitForSnapshot(t, filepath.Join(dir, "flights.journal"), 120)
	if err := flights.Engine().SetPhase(core.PhaseParallel); err != nil {
		t.Fatal(err)
	}
	wantJoint := flights.Engine().Monitor().Joint()
	wantConf, err := flights.Engine().Confidence("")
	if err != nil {
		t.Fatal(err)
	}
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the config still says Observation; the journal must win
	// with Parallel and the snapshot posterior.
	f2, _ := twoUnitFleet(t, journaled)
	flights2, err := f2.Unit("flights")
	if err != nil {
		t.Fatal(err)
	}
	if got := flights2.Engine().Phase(); got != core.PhaseParallel {
		t.Fatalf("restarted phase %v, want parallel", got)
	}
	if got := flights2.Engine().Monitor().Joint(); got != wantJoint {
		t.Fatalf("restarted joint %+v, want %+v", got, wantJoint)
	}
	gotConf, err := flights2.Engine().Confidence("")
	if err != nil {
		t.Fatal(err)
	}
	if gotConf != wantConf {
		t.Fatalf("restarted confidence %+v, want %+v", gotConf, wantConf)
	}
	// The other, non-inference unit restarts untouched.
	hotels2, err := f2.Unit("hotels")
	if err != nil {
		t.Fatal(err)
	}
	if got := hotels2.Engine().Phase(); got != core.PhaseParallel {
		t.Fatalf("hotels phase %v", got)
	}
}

// A corrupted journal is quarantined, never fatal: the fleet boots, the
// unit starts a fresh campaign, and the damaged file is kept aside.
func TestCorruptJournalQuarantined(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flights.journal")
	if err := os.WriteFile(path, []byte("WSUJRNL1 this is not a journal"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, _ := twoUnitFleet(t, func(cfg *Config) { cfg.JournalDir = dir })
	if len(f.journalNotes) == 0 {
		t.Fatal("quarantine left no journal note")
	}
	if f.journalNotes[0].Unit != "flights" {
		t.Fatalf("note %+v", f.journalNotes[0])
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Fatalf("quarantined file: %v", err)
	}
	// The fresh journal is live: it received the startup compact frame.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st, _, err := journal.Decode(data); err != nil || st.Snapshot == nil {
		t.Fatalf("fresh journal state %+v err %v", st, err)
	}
}

// switchNow is a switch criterion any posterior satisfies.
type switchNow struct{}

func (switchNow) Satisfied(*bayes.Posterior) bool { return true }
func (switchNow) Name() string                    { return "switch-now" }

// Close drains the engines before it closes their journals. A demand
// delivered early (responsiveness mode) leaves its collection running in
// the background; when that collection lands during Close and fires the
// switch policy, the transition must reach the journal, so the restarted
// unit resumes new-only instead of the phase it has already left.
func TestCloseDrainsEnginesBeforeJournals(t *testing.T) {
	dir := t.TempDir()
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	rel, err := service.New(service.DemoContract("1.1"), service.DemoBehaviours(), service.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	// The new release answers 500 ms late, unless the consumer leaves.
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-time.After(500 * time.Millisecond):
			rel.Handler().ServeHTTP(w, r)
		case <-r.Context().Done():
		}
	}))
	t.Cleanup(slow.Close)

	f, err := New(Config{
		JournalDir: dir,
		Units: []UnitConfig{{Name: "flights", Engine: core.Config{
			Releases:     []core.Endpoint{old, {Version: "1.1", URL: slow.URL}},
			InitialPhase: core.PhaseParallel,
			Mode:         core.ModeResponsiveness,
			Oracle:       oracle.Header{},
			Inference:    testInference(),
			Policy:       &core.PolicyConfig{Criterion: switchNow{}, CheckEvery: 1},
		}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(f)
	if _, err := callUnit(t, ts.URL, "flights", 1, 2); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	flights, _ := f.Unit("flights")
	if got := flights.Engine().Phase(); got != core.PhaseParallel {
		t.Fatalf("phase %v before Close: the collection finished early, so the drain is not tested", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if got := flights.Engine().Phase(); got != core.PhaseNewOnly {
		t.Fatalf("phase %v after the drain, want the policy's new-only", got)
	}
	data, err := os.ReadFile(filepath.Join(dir, "flights.journal"))
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := journal.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if st.Phase != core.PhaseNewOnly {
		t.Fatalf("journal replays phase %v, want new-only: the switch fired during Close and was lost", st.Phase)
	}
}

// sseEvent is one parsed frame from the /fleet/events stream.
type sseEvent struct {
	id    string
	event string
	data  string
}

// readSSE parses frames off an open event stream until ctx ends.
func readSSE(ctx context.Context, t *testing.T, body *bufio.Reader, out chan<- sseEvent) {
	var ev sseEvent
	for {
		line, err := body.ReadString('\n')
		if err != nil {
			return
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "id: "):
			ev.id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			ev.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			ev.data = line[len("data: "):]
		case line == "" && ev.event != "":
			select {
			case out <- ev:
			case <-ctx.Done():
				return
			}
			ev = sseEvent{}
		}
	}
}

func nextEvent(t *testing.T, ch <-chan sseEvent) sseEvent {
	t.Helper()
	select {
	case ev := <-ch:
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("event stream stalled")
		return sseEvent{}
	}
}

// The push control plane: /fleet/events is token-guarded, opens with
// per-unit status, and streams phase, confidence and release events.
func TestEventsStreamDeliversCampaignEvents(t *testing.T) {
	const token = "s3cret"
	_, ts := twoUnitFleet(t, func(cfg *Config) {
		cfg.AdminToken = token
		cfg.Units[0].Engine.Inference = testInference()
	})

	// No token, no stream.
	resp, err := http.Get(ts.URL + "/fleet/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated stream = %d", resp.StatusCode)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/fleet/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d", stream.StatusCode)
	}
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	events := make(chan sseEvent, 32)
	go readSSE(ctx, t, bufio.NewReader(stream.Body), events)

	// Synchronization point: one status event per unit, in order.
	for _, unit := range []string{"flights", "hotels"} {
		ev := nextEvent(t, events)
		if ev.event != "status" || !strings.Contains(ev.data, `"unit":"`+unit+`"`) {
			t.Fatalf("opening event %+v, want status for %s", ev, unit)
		}
	}

	// A phase change pushes "phase" then (inference-enabled) "confidence".
	postJSON(t, ts.URL+"/fleet/units/flights/phase?token="+token, `{"phase":"new-only"}`, http.StatusOK)
	ev := nextEvent(t, events)
	if ev.event != "phase" || !strings.Contains(ev.data, `"to":"new-only"`) ||
		!strings.Contains(ev.data, `"unit":"flights"`) || !strings.Contains(ev.data, `"cause":"manual"`) {
		t.Fatalf("phase event %+v", ev)
	}
	ev = nextEvent(t, events)
	if ev.event != "confidence" || !strings.Contains(ev.data, `"unit":"flights"`) {
		t.Fatalf("confidence event %+v", ev)
	}

	// A release add pushes "release".
	postJSON(t, ts.URL+"/fleet/units/hotels/releases?token="+token,
		`{"version":"2.0","url":"http://127.0.0.1:1/v2"}`, http.StatusOK)
	ev = nextEvent(t, events)
	if ev.event != "release" || !strings.Contains(ev.data, `"action":"added"`) ||
		!strings.Contains(ev.data, `"version":"2.0"`) {
		t.Fatalf("release event %+v", ev)
	}
}

// openStream opens the authenticated /fleet/events stream with the
// given extra headers and starts a frame reader.
func openStream(ctx context.Context, t *testing.T, url, token, lastEventID string) (<-chan sseEvent, *http.Response) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/fleet/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	stream, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stream.Body.Close() })
	if stream.StatusCode != http.StatusOK {
		t.Fatalf("stream = %d", stream.StatusCode)
	}
	ch := make(chan sseEvent, 64)
	go readSSE(ctx, t, bufio.NewReader(stream.Body), ch)
	return ch, stream
}

// A reconnecting subscriber that presents Last-Event-ID resumes from
// the hub's history: the missed events are replayed with their original
// ids instead of a fresh status burst.
func TestEventsStreamResumesFromLastEventID(t *testing.T) {
	const token = "s3cret"
	_, ts := twoUnitFleet(t, func(cfg *Config) {
		cfg.AdminToken = token
		cfg.Units[0].Engine.InitialPhase = core.PhaseObservation
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	events, stream := openStream(ctx, t, ts.URL, token, "")
	for range []string{"flights", "hotels"} {
		if ev := nextEvent(t, events); ev.event != "status" || ev.id != "" {
			t.Fatalf("opening event %+v, want id-less status", ev)
		}
	}

	// Observe one live event and note its id.
	postJSON(t, ts.URL+"/fleet/units/flights/phase?token="+token, `{"phase":"parallel"}`, http.StatusOK)
	ev := nextEvent(t, events)
	if ev.event != "phase" || ev.id == "" {
		t.Fatalf("phase event %+v, want an id", ev)
	}
	lastID := ev.id

	// Drop the stream, then miss an event while disconnected.
	stream.Body.Close()
	postJSON(t, ts.URL+"/fleet/units/flights/phase?token="+token, `{"phase":"new-only"}`, http.StatusOK)

	// Reconnecting with Last-Event-ID replays the miss — no status burst.
	events2, _ := openStream(ctx, t, ts.URL, token, lastID)
	ev = nextEvent(t, events2)
	if ev.event != "phase" || !strings.Contains(ev.data, `"to":"new-only"`) {
		t.Fatalf("resumed stream opened with %+v, want the missed phase event", ev)
	}
	if ev.id == lastID || ev.id == "" {
		t.Fatalf("replayed event id %q after %q", ev.id, lastID)
	}

	// A malformed resume point is a 400, not a silent fresh stream.
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/fleet/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Authorization", "Bearer "+token)
	req.Header.Set("Last-Event-ID", "not-a-number")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed Last-Event-ID = %d, want 400", resp.StatusCode)
	}
}

// When the gap outruns the bounded history the stream cannot repair the
// subscriber's view by replay: it says so with a "resync" event and
// falls back to the status burst.
func TestEventsStreamResyncsWhenHistoryEvicted(t *testing.T) {
	const token = "s3cret"
	f, ts := twoUnitFleet(t, func(cfg *Config) { cfg.AdminToken = token })

	// Age the resume point out of the bounded ring.
	for i := 0; i < events.DefaultHistory+8; i++ {
		f.hub.Publish("tick", i)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream, _ := openStream(ctx, t, ts.URL, token, "1")

	ev := nextEvent(t, stream)
	if ev.event != "resync" || !strings.Contains(ev.data, `"lastEventId":1`) {
		t.Fatalf("evicted resume opened with %+v, want resync", ev)
	}
	for _, unit := range []string{"flights", "hotels"} {
		ev = nextEvent(t, stream)
		if ev.event != "status" || !strings.Contains(ev.data, `"unit":"`+unit+`"`) {
			t.Fatalf("post-resync event %+v, want status for %s", ev, unit)
		}
	}
}
