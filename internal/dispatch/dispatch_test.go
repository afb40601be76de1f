package dispatch

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/httpx"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/wire"
)

// stubPost is a fake release transport (the Config.Begin seam): every
// call is a wire.Deferred one whose End answers in process with a
// canned response.
type stubPost struct {
	status int
	resp   []byte
	delay  time.Duration
	calls  atomic.Int64
}

func (s *stubPost) post(ctx context.Context) (httpx.Result, error) {
	s.calls.Add(1)
	if s.delay > 0 {
		select {
		case <-ctx.Done():
			return httpx.Result{}, ctx.Err()
		case <-time.After(s.delay):
		}
	}
	status := s.status
	if status == 0 {
		status = http.StatusOK
	}
	return httpx.Result{
		Status:   status,
		Body:     s.resp,
		Header:   httpx.Header("Content-Type: " + soap.ContentType + "\n"),
		Attempts: 1,
	}, nil
}

func (s *stubPost) begin(ctx context.Context, _, _ string, _ []byte) wire.Call {
	return wire.Deferred(func() (httpx.Result, error) { return s.post(ctx) })
}

// beginOnce is the engine's binding of a wire client into Config.Begin
// with the default single-attempt policy.
func beginOnce(wc *wire.Client) func(ctx context.Context, url, ct string, body []byte) wire.Call {
	return func(ctx context.Context, url, ct string, body []byte) wire.Call {
		return wc.Begin(ctx, url, ct, body, httpx.NoRetry)
	}
}

func okEnvelope() []byte {
	return soap.EnvelopeRaw([]byte(`<addResponse><sum>3</sum></addResponse>`))
}

func targets(n int) []Endpoint {
	eps := make([]Endpoint, n)
	for i := range eps {
		eps[i] = Endpoint{Version: "1." + string(rune('0'+i)), URL: "http://rel.invalid"}
	}
	return eps
}

func newStubDispatcher(stub *stubPost, onOutcome func(Outcome)) *Dispatcher {
	return New(Config{
		Begin:     stub.begin,
		OnOutcome: onOutcome,
	})
}

func baseRequest(eps []Endpoint, mode Mode) Request {
	return Request{
		Parent:    context.Background(),
		Targets:   eps,
		Mode:      mode,
		Timeout:   2 * time.Second,
		Operation: "add",
		Envelope:  soap.EnvelopeRaw([]byte(`<addRequest><a>1</a><b>2</b></addRequest>`)),
		Oldest:    eps[0],
		Newest:    eps[len(eps)-1],
	}
}

func TestDoSingleTargetDelivers(t *testing.T) {
	var out Outcome
	var fired int
	d := newStubDispatcher(&stubPost{resp: okEnvelope()}, func(o Outcome) {
		out = Outcome{
			Operation: o.Operation, Winner: o.Winner,
			ConsumerGone: o.ConsumerGone,
		}
		fired++
	})
	defer d.Close()
	eps := targets(1)
	winner, err := d.Do(baseRequest(eps, ModeReliability))
	if err != nil {
		t.Fatal(err)
	}
	if winner.Release != "1.0" || !strings.Contains(string(winner.Body), "<sum>3</sum>") {
		t.Fatalf("winner = %+v", winner)
	}
	if fired != 1 || out.Operation != "add" || out.ConsumerGone {
		t.Fatalf("outcome = %+v (fired %d)", out, fired)
	}
}

func TestDoFanOutReliabilityCollectsAll(t *testing.T) {
	tr := &stubPost{resp: okEnvelope()}
	var replies int
	var mu sync.Mutex
	d := newStubDispatcher(tr, func(o Outcome) {
		mu.Lock()
		defer mu.Unlock()
		for _, r := range o.Replies {
			if r.Release != "" {
				replies++
			}
		}
	})
	eps := targets(3)
	if _, err := d.Do(baseRequest(eps, ModeReliability)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if replies != 3 || tr.calls.Load() != 3 {
		t.Fatalf("replies = %d, calls = %d", replies, tr.calls.Load())
	}
}

func TestDoSequentialShortCircuits(t *testing.T) {
	tr := &stubPost{resp: okEnvelope()}
	var invoked int
	var mu sync.Mutex
	d := newStubDispatcher(tr, func(o Outcome) {
		mu.Lock()
		invoked = len(o.Replies)
		mu.Unlock()
	})
	defer d.Close()
	if _, err := d.Do(baseRequest(targets(3), ModeSequential)); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if invoked != 1 || tr.calls.Load() != 1 {
		t.Fatalf("sequential invoked %d releases (%d calls)", invoked, tr.calls.Load())
	}
}

func TestDoNoResponsesIsUnavailable(t *testing.T) {
	d := newStubDispatcher(&stubPost{resp: okEnvelope(), delay: time.Hour}, nil)
	defer d.Close()
	req := baseRequest(targets(2), ModeReliability)
	req.Timeout = 30 * time.Millisecond
	_, err := d.Do(req)
	if !errors.Is(err, adjudicate.ErrNoResponses) {
		t.Fatalf("err = %v", err)
	}
}

// The satellite bugfix at the dispatcher level: a consumer that hangs up
// cancels the in-flight fan-out instead of letting it run to the full
// dispatch timeout, and the aborted outcome is flagged so monitoring can
// ignore it.
func TestDoConsumerCancelAbortsInFlight(t *testing.T) {
	outcomes := make(chan Outcome, 1)
	d := newStubDispatcher(&stubPost{resp: okEnvelope(), delay: time.Hour},
		func(o Outcome) { outcomes <- Outcome{ConsumerGone: o.ConsumerGone} })
	defer d.Close()
	parent, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	req := baseRequest(targets(2), ModeReliability)
	req.Parent = parent
	req.Timeout = time.Hour
	start := time.Now()
	_, err := d.Do(req)
	if err == nil {
		t.Fatal("cancelled dispatch delivered")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dispatch outlived its consumer by %v", elapsed)
	}
	select {
	case o := <-outcomes:
		if !o.ConsumerGone {
			t.Fatal("aborted outcome not flagged ConsumerGone")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no outcome reported")
	}
}

// Early delivery detaches from the consumer: responsiveness mode returns
// the first reply, the consumer disconnects, and the straggler is still
// collected for monitoring.
func TestDoEarlyDeliveryDetachesFromConsumer(t *testing.T) {
	perURL := map[string]*stubPost{
		"http://fast.invalid": {resp: okEnvelope()},
		"http://slow.invalid": {resp: okEnvelope(), delay: 150 * time.Millisecond},
	}
	outcomes := make(chan Outcome, 1)
	d := New(Config{
		Begin: func(ctx context.Context, url, ct string, body []byte) wire.Call {
			return perURL[url].begin(ctx, url, ct, body)
		},
		OnOutcome: func(o Outcome) {
			n := 0
			for _, r := range o.Replies {
				if r.Release != "" && r.Valid() {
					n++
				}
			}
			outcomes <- Outcome{ConsumerGone: o.ConsumerGone, Targets: o.Targets[:n]}
		},
	})
	defer d.Close()

	parent, cancel := context.WithCancel(context.Background())
	eps := []Endpoint{
		{Version: "1.0", URL: "http://fast.invalid"},
		{Version: "1.1", URL: "http://slow.invalid"},
	}
	req := baseRequest(eps, ModeResponsiveness)
	req.Parent = parent
	winner, err := d.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if winner.Release != "1.0" {
		t.Fatalf("winner = %s", winner.Release)
	}
	cancel() // consumer hangs up right after delivery
	select {
	case o := <-outcomes:
		if o.ConsumerGone {
			t.Fatal("post-delivery disconnect flagged the outcome aborted")
		}
		if len(o.Targets) != 2 {
			t.Fatalf("straggler not collected: %d valid replies", len(o.Targets))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("background collection never completed")
	}
}

func TestDoAgainstLiveServerHonoursDeadline(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer srv.Close()
	defer close(release)
	wc := wire.NewClient(wire.Options{})
	defer wc.Close()
	d := New(Config{Begin: beginOnce(wc)})
	defer d.Close()
	req := baseRequest([]Endpoint{{Version: "1.0", URL: srv.URL}}, ModeReliability)
	req.Timeout = 50 * time.Millisecond
	start := time.Now()
	_, err := d.Do(req)
	if err == nil {
		t.Fatal("expected unavailability")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("deadline not enforced")
	}
}

func TestParseModeRoundTrips(t *testing.T) {
	for _, m := range []Mode{ModeReliability, ModeResponsiveness, ModeDynamic, ModeSequential} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	for short, want := range map[string]Mode{
		"reliability": ModeReliability, "responsiveness": ModeResponsiveness,
		"dynamic": ModeDynamic, "sequential": ModeSequential,
	} {
		if got, err := ParseMode(short); err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", short, got, err)
		}
	}
	if _, err := ParseMode("warp"); err == nil {
		t.Error("ParseMode accepted garbage")
	}
	if Mode(9).String() != "Mode(9)" {
		t.Error("unknown mode string")
	}
}

// TestOutcomeThreadsMonRefAlignedWithReplies pins the Endpoint.MonRef
// contract: the annotation reaches the outcome hook unchanged, with
// Targets[i] still aligned to Replies[i] on both the fan-out and the
// sequential path — the engine aggregates monitoring by that index.
func TestOutcomeThreadsMonRefAlignedWithReplies(t *testing.T) {
	for _, mode := range []Mode{ModeReliability, ModeSequential} {
		outcomes := make(chan Outcome, 1)
		d := newStubDispatcher(&stubPost{resp: okEnvelope()}, func(o Outcome) {
			cp := Outcome{Targets: append([]Endpoint(nil), o.Targets...)}
			for _, r := range o.Replies {
				cp.Replies = append(cp.Replies, adjudicate.Reply{Release: r.Release})
			}
			outcomes <- cp
		})
		eps := targets(3)
		for i := range eps {
			eps[i].MonRef = int32(i + 7)
		}
		req := baseRequest(eps, mode)
		if _, err := d.Do(req); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		out := <-outcomes
		if len(out.Targets) == 0 || len(out.Targets) != len(out.Replies) {
			t.Fatalf("%v: %d targets vs %d replies", mode, len(out.Targets), len(out.Replies))
		}
		for i := range out.Targets {
			if out.Targets[i].MonRef != int32(i+7) {
				t.Fatalf("%v: target %d MonRef = %d, want %d", mode, i, out.Targets[i].MonRef, i+7)
			}
			if out.Replies[i].Release != out.Targets[i].Version {
				t.Fatalf("%v: reply %d is %q, target is %q",
					mode, i, out.Replies[i].Release, out.Targets[i].Version)
			}
		}
	}
}

// TestFanoutReuseAcrossDispatches drives many sequential fan-outs so
// pooled fan-out state (reply channel, shared call args) is recycled;
// the replies must never bleed between dispatches.
func TestFanoutReuseAcrossDispatches(t *testing.T) {
	tr := &stubPost{resp: okEnvelope()}
	var bad atomic.Int64
	d := newStubDispatcher(tr, func(o Outcome) {
		seen := map[string]bool{}
		for _, r := range o.Replies {
			if r.Release == "" || seen[r.Release] {
				bad.Add(1)
			}
			seen[r.Release] = true
		}
	})
	eps := targets(4)
	for i := 0; i < 200; i++ {
		if _, err := d.Do(baseRequest(eps, ModeReliability)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Fatalf("%d duplicated or empty replies across reused fan-outs", bad.Load())
	}
}

// §4.2 mode 4 invokes the next release when the previous one does not
// answer in time, and gives it the whole timeout: a release that hangs
// must not leave its successor an expired deadline, nor charge it with a
// non-response.
func TestDoSequentialFailsOverAfterTimeout(t *testing.T) {
	outcomes := make(chan []bool, 1)
	d := New(Config{
		Begin: func(ctx context.Context, url, _ string, _ []byte) wire.Call {
			return wire.Deferred(func() (httpx.Result, error) {
				if url == "http://hang.invalid" {
					<-ctx.Done()
				}
				if err := ctx.Err(); err != nil {
					return httpx.Result{}, err
				}
				return httpx.Result{Status: http.StatusOK, Body: okEnvelope()}, nil
			})
		},
		OnOutcome: func(o Outcome) {
			responded := make([]bool, len(o.Replies))
			for i, r := range o.Replies {
				responded[i] = Responded(r)
			}
			outcomes <- responded
		},
	})
	defer d.Close()
	req := baseRequest([]Endpoint{
		{Version: "1.0", URL: "http://hang.invalid"},
		{Version: "1.1", URL: "http://ok.invalid"},
	}, ModeSequential)
	req.Timeout = 20 * time.Millisecond
	winner, err := d.Do(req)
	if err != nil || winner.Release != "1.1" {
		t.Fatalf("winner %q, err %v: no failover after release 1.0 timed out", winner.Release, err)
	}
	winner.ReleaseBody()
	if got := <-outcomes; len(got) != 2 || got[0] || !got[1] {
		t.Fatalf("responded = %v, want [false true]", got)
	}
}
