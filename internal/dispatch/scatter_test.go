package dispatch

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/httpx"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/testutil"
	"wsupgrade/internal/wire"
)

// Failure isolation and fidelity of the scatter/gather fan-out, against
// a real wire.Client over in-memory pipes: what one release does —
// answer late, never answer, stop reading — shows in that release's
// reply and in no other's, on fresh gatherers and again on the ones the
// first dispatch left parked. The failure mode of each test is a schedule,
// not a value, so the bounds are an order of magnitude wide and CI runs
// them repeatedly under the race detector.

// pipeRelease is one release endpoint served over net.Pipe. Its first
// exchange on every connection is answered at once, so that a warm-up
// dispatch leaves an idle connection for Begin to write on; delay and
// deaf decide what happens to every later request on the connection.
type pipeRelease struct {
	// delay is how long a reply is held back; negative means forever.
	delay time.Duration
	// deaf makes the release stop reading after the warm-up exchange.
	deaf bool

	opened, closed atomic.Int64
	stop           chan struct{}
	wg             sync.WaitGroup
}

func newPipeRelease(t *testing.T, delay time.Duration, deaf bool) *pipeRelease {
	r := &pipeRelease{delay: delay, deaf: deaf, stop: make(chan struct{})}
	t.Cleanup(func() {
		close(r.stop)
		r.wg.Wait()
	})
	return r
}

// countedConn counts its one Close, so a test can tell a connection that
// is still checked out from one that was pooled or closed.
type countedConn struct {
	net.Conn
	once   sync.Once
	closed *atomic.Int64
}

func (c *countedConn) Close() error {
	c.once.Do(func() { c.closed.Add(1) })
	return c.Conn.Close()
}

func (r *pipeRelease) dial() net.Conn {
	client, server := net.Pipe()
	r.opened.Add(1)
	r.wg.Add(1)
	go r.serve(server)
	return &countedConn{Conn: client, closed: &r.closed}
}

var pipeReply = func() []byte {
	env := okEnvelope()
	head := "HTTP/1.1 200 OK\r\nContent-Type: " + soap.ContentType +
		"\r\nContent-Length: " + strconv.Itoa(len(env)) + "\r\n\r\n"
	return append([]byte(head), env...)
}()

func (r *pipeRelease) serve(c net.Conn) {
	defer r.wg.Done()
	defer c.Close()
	go func() { // unblock a parked read or write when the test ends
		<-r.stop
		c.Close()
	}()
	br := bufio.NewReader(c)
	for served := 0; ; served++ {
		if served > 0 && r.deaf {
			<-r.stop
			return
		}
		req, err := http.ReadRequest(br)
		if err != nil {
			return
		}
		if _, err := io.Copy(io.Discard, req.Body); err != nil {
			return
		}
		if served > 0 && r.delay != 0 {
			if r.delay < 0 {
				<-r.stop
				return
			}
			select {
			case <-time.After(r.delay):
			case <-r.stop:
				return
			}
		}
		if _, err := c.Write(pipeReply); err != nil {
			return
		}
	}
}

// pipeFleet is a wire client whose dialer routes each host to its
// pipeRelease.
type pipeFleet struct {
	wc       *wire.Client
	releases map[string]*pipeRelease // by host:port
}

func newPipeFleet(t *testing.T, releases map[string]*pipeRelease) *pipeFleet {
	byAddr := make(map[string]*pipeRelease, len(releases))
	for host, r := range releases {
		byAddr[host+":80"] = r
	}
	wc := wire.NewClient(wire.Options{
		Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			r, ok := byAddr[addr]
			if !ok {
				return nil, errors.New("no such release: " + addr)
			}
			return r.dial(), nil
		},
	})
	t.Cleanup(func() { _ = wc.Close() })
	return &pipeFleet{wc: wc, releases: byAddr}
}

// checkedOut is how many connections are neither closed nor idle in the
// client's pools: zero unless a begun call was never ended. Only valid
// after wc.Close(), which closes every idle connection.
func (f *pipeFleet) checkedOut() int64 {
	var n int64
	for _, r := range f.releases {
		n += r.opened.Load() - r.closed.Load()
	}
	return n
}

// replyCopy keeps what a test asserts on of a pooled reply.
type replyCopy struct {
	release   string
	latency   time.Duration
	responded bool
	err       error
}

type outcomeCopy struct {
	replies      []replyCopy
	consumerGone bool
}

func (o outcomeCopy) reply(t *testing.T, release string) replyCopy {
	t.Helper()
	for _, r := range o.replies {
		if r.release == release {
			return r
		}
	}
	t.Fatalf("no reply recorded for release %s: %+v", release, o.replies)
	return replyCopy{}
}

// scatterRig is a dispatcher over a pipeFleet whose outcomes arrive on a
// channel.
type scatterRig struct {
	*pipeFleet
	begin    func(ctx context.Context, url, ct string, body []byte) wire.Call
	d        *Dispatcher
	outcomes chan outcomeCopy
}

func newScatterRig(t *testing.T, releases map[string]*pipeRelease,
	begin func(ctx context.Context, url, ct string, body []byte) wire.Call) *scatterRig {
	return newClockedScatterRig(t, nil, releases, begin)
}

// newClockedScatterRig is newScatterRig on clock (nil is the wall clock).
func newClockedScatterRig(t *testing.T, clock Clock, releases map[string]*pipeRelease,
	begin func(ctx context.Context, url, ct string, body []byte) wire.Call) *scatterRig {
	rig := &scatterRig{pipeFleet: newPipeFleet(t, releases), outcomes: make(chan outcomeCopy, 4)}
	if begin == nil {
		begin = beginOnce(rig.wc)
	}
	rig.begin = begin
	rig.d = New(Config{
		Begin: begin,
		Clock: clock,
		OnOutcome: func(o Outcome) {
			cp := outcomeCopy{consumerGone: o.ConsumerGone}
			for _, r := range o.Replies {
				cp.replies = append(cp.replies, replyCopy{
					release: r.Release, latency: r.Latency, responded: Responded(r), err: r.Err,
				})
			}
			rig.outcomes <- cp
		},
	})
	t.Cleanup(func() { _ = rig.d.Close() })
	return rig
}

func (rig *scatterRig) outcome(t *testing.T) outcomeCopy {
	t.Helper()
	select {
	case o := <-rig.outcomes:
		return o
	case <-time.After(10 * time.Second):
		t.Fatal("no outcome reported")
		return outcomeCopy{}
	}
}

// warmUp runs one dispatch that every release answers at once, leaving
// one idle connection per release. It runs on a dispatcher of its own,
// closed before it returns, so that rig.d's gatherers are only those its
// own dispatches started.
func (rig *scatterRig) warmUp(t *testing.T, eps []Endpoint) {
	t.Helper()
	d := New(Config{Begin: rig.begin})
	defer d.Close()
	winner, err := d.Do(baseRequest(eps, ModeReliability))
	if err != nil {
		t.Fatalf("warm-up dispatch: %v", err)
	}
	winner.Buf.Release()
}

// rounds is how many dispatches each isolation test makes on one
// dispatcher: the first starts its gatherers, the second hands its calls
// to them, parked (awaitParked) since the first.
const rounds = 2

// awaitParked waits until the gatherers a dispatch of n targets in mode
// hands calls to are parked on d, so that the next such dispatch reuses
// them rather than starting its own.
func awaitParked(t *testing.T, d *Dispatcher, mode Mode, n int) {
	t.Helper()
	want := int32(n)
	if mode == ModeReliability {
		want-- // Do ends the first call itself
	}
	deadline := time.Now().Add(10 * time.Second)
	for d.parked.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%d gatherers parked, want %d", d.parked.Load(), want)
		}
		runtime.Gosched()
	}
}

func endpoints(hosts ...string) []Endpoint {
	eps := make([]Endpoint, len(hosts))
	for i, h := range hosts {
		eps[i] = Endpoint{Version: h, URL: "http://" + h}
	}
	return eps
}

// (a) A slow release's time is not charged to a fast one, whichever of
// the two this goroutine ends itself.
func TestScatterLatencyIsPerRelease(t *testing.T) {
	for _, order := range [][]string{{"slow", "fast"}, {"fast", "slow"}} {
		t.Run(strings.Join(order, "-"), func(t *testing.T) {
			rig := newScatterRig(t, map[string]*pipeRelease{
				"slow": newPipeRelease(t, 30*time.Millisecond, false),
				"fast": newPipeRelease(t, time.Millisecond, false),
			}, nil)
			eps := endpoints(order...)
			rig.warmUp(t, eps)
			for round := range rounds {
				if round > 0 {
					awaitParked(t, rig.d, ModeReliability, len(eps))
				}
				if _, err := rig.d.Do(baseRequest(eps, ModeReliability)); err != nil {
					t.Fatal(err)
				}
				o := rig.outcome(t)
				if fast := o.reply(t, "fast"); !fast.responded || fast.latency >= 10*time.Millisecond {
					t.Fatalf("round %d: fast release: responded %v, latency %v, want under 10ms", round, fast.responded, fast.latency)
				}
				if slow := o.reply(t, "slow"); !slow.responded || slow.latency < 30*time.Millisecond {
					t.Fatalf("round %d: slow release: responded %v, latency %v, want at least 30ms", round, slow.responded, slow.latency)
				}
			}
		})
	}
}

// (b) A release that never answers is charged the timeout; the one that
// answered at once keeps its reply and its own latency.
func TestScatterTimeoutIsPerRelease(t *testing.T) {
	for _, order := range [][]string{{"mute", "prompt"}, {"prompt", "mute"}} {
		t.Run(strings.Join(order, "-"), func(t *testing.T) {
			rig := newScatterRig(t, map[string]*pipeRelease{
				"mute":   newPipeRelease(t, -1, false),
				"prompt": newPipeRelease(t, 0, false),
			}, nil)
			eps := endpoints(order...)
			for round := range rounds {
				if round > 0 {
					awaitParked(t, rig.d, ModeReliability, len(eps))
				}
				rig.warmUp(t, eps) // the timeout closed mute's connection
				req := baseRequest(eps, ModeReliability)
				req.Timeout = 150 * time.Millisecond
				winner, err := rig.d.Do(req)
				if err != nil || winner.Release != "prompt" {
					t.Fatalf("round %d: winner %q, err %v", round, winner.Release, err)
				}
				winner.Buf.Release()
				o := rig.outcome(t)
				if p := o.reply(t, "prompt"); !p.responded || p.latency >= 50*time.Millisecond {
					t.Fatalf("round %d: prompt release: responded %v, latency %v (err %v)", round, p.responded, p.latency, p.err)
				}
				m := o.reply(t, "mute")
				if m.responded || !errors.Is(m.err, context.DeadlineExceeded) {
					t.Fatalf("round %d: mute release: responded %v, err %v, want a timeout", round, m.responded, m.err)
				}
			}
		})
	}
}

// (c) A release that stops reading cannot hold up another release's
// request: a 1 MiB envelope is not written by the scatter (a pipe, like
// a full socket buffer, blocks the writer until the peer reads), so the
// healthy release is called, and answers, in its own time.
func TestScatterStalledReaderIsIsolated(t *testing.T) {
	big := soap.EnvelopeRaw(bytes.Repeat([]byte("<pad>0123456789abcdef</pad>"), (1<<20)/27))
	for _, mode := range []Mode{ModeResponsiveness, ModeReliability} {
		t.Run(mode.String(), func(t *testing.T) {
			rig := newScatterRig(t, map[string]*pipeRelease{
				"deaf":    newPipeRelease(t, 0, true),
				"healthy": newPipeRelease(t, 0, false),
			}, nil)
			eps := endpoints("deaf", "healthy") // the stalled one is written first
			for round := range rounds {
				if round > 0 {
					awaitParked(t, rig.d, mode, len(eps))
				}
				rig.warmUp(t, eps) // the timeout closed deaf's connection
				req := baseRequest(eps, mode)
				req.Envelope = big
				req.Timeout = 500 * time.Millisecond
				start := time.Now()
				winner, err := rig.d.Do(req)
				delivered := time.Since(start)
				if err != nil || winner.Release != "healthy" {
					t.Fatalf("round %d: winner %q, err %v", round, winner.Release, err)
				}
				winner.Buf.Release()
				if mode == ModeResponsiveness && delivered >= req.Timeout/2 {
					t.Fatalf("round %d: delivery took %v: the healthy release waited for the stalled one", round, delivered)
				}
				o := rig.outcome(t)
				if h := o.reply(t, "healthy"); !h.responded || h.latency >= req.Timeout/2 {
					t.Fatalf("round %d: healthy release: responded %v, latency %v (err %v)", round, h.responded, h.latency, h.err)
				}
				if d := o.reply(t, "deaf"); d.responded || !errors.Is(d.err, context.DeadlineExceeded) {
					t.Fatalf("round %d: deaf release: responded %v, err %v, want a timeout", round, d.responded, d.err)
				}
			}
		})
	}
}

// (d) The consumer hangs up after the last request was written and
// before anyone waits for a reply: every begun call is still ended, once,
// the outcome is flagged so nothing is charged, and no goroutine or
// checked-out connection outlives the dispatch.
func TestScatterConsumerGoneBetweenScatterAndGather(t *testing.T) {
	for _, mode := range []Mode{ModeReliability, ModeResponsiveness} {
		t.Run(mode.String(), func(t *testing.T) {
			testutil.CheckGoroutines(t)
			const n = 3
			hosts := []string{"r0", "r1", "r2"}
			releases := make(map[string]*pipeRelease, n)
			for _, h := range hosts {
				releases[h] = newPipeRelease(t, -1, false)
			}
			var (
				rig          *scatterRig
				cancel       context.CancelFunc
				armed        atomic.Bool
				begun, ended atomic.Int64
			)
			rig = newScatterRig(t, releases,
				func(ctx context.Context, url, ct string, body []byte) wire.Call {
					call := rig.wc.Begin(ctx, url, ct, body, httpx.NoRetry)
					if !armed.Load() {
						return call
					}
					if begun.Add(1)%n == 0 {
						cancel() // scatter complete, gather not started
					}
					return wire.Deferred(func() (httpx.Result, error) {
						ended.Add(1)
						return call.End()
					})
				})
			eps := endpoints(hosts...)
			for round := range rounds {
				if round > 0 {
					awaitParked(t, rig.d, mode, n)
				}
				armed.Store(false)
				rig.warmUp(t, eps) // the cancellation closed every connection
				var parent context.Context
				parent, cancel = context.WithCancel(context.Background())
				armed.Store(true)
				req := baseRequest(eps, mode)
				req.Parent = parent
				req.Timeout = time.Hour
				start := time.Now()
				_, err := rig.d.Do(req)
				cancel()
				if !errors.Is(err, adjudicate.ErrNoResponses) {
					t.Fatalf("round %d: err = %v, want no responses", round, err)
				}
				if elapsed := time.Since(start); elapsed > 5*time.Second {
					t.Fatalf("round %d: dispatch outlived its consumer by %v", round, elapsed)
				}
				o := rig.outcome(t)
				if !o.consumerGone {
					t.Fatalf("round %d: aborted outcome not flagged ConsumerGone", round)
				}
				for _, r := range o.replies {
					if r.responded || !errors.Is(r.err, context.Canceled) {
						t.Fatalf("round %d: release %s: responded %v, err %v, want the consumer's cancellation", round, r.release, r.responded, r.err)
					}
				}
			}
			if err := rig.d.Close(); err != nil {
				t.Fatal(err)
			}
			if b, e := begun.Load(), ended.Load(); b != rounds*n || e != rounds*n {
				t.Fatalf("%d calls begun, %d ended, want %d each", b, e, rounds*n)
			}
			_ = rig.wc.Close()
			if out := rig.checkedOut(); out != 0 {
				t.Fatalf("%d connections still checked out after Close", out)
			}
		})
	}
}

// (e) Close races fan-outs in flight, and one more dispatch begins after
// Close has returned: nothing panics, the dispatcher's WaitGroup
// included; every begun call is ended exactly once; no gatherer or
// collector outlives the dispatches; and a second Close does nothing.
func TestCloseRacesFanOuts(t *testing.T) {
	testutil.CheckGoroutines(t)
	var begun, ended, endedTwice, completed atomic.Int64
	d := New(Config{
		Begin: func(context.Context, string, string, []byte) wire.Call {
			begun.Add(1)
			var once atomic.Bool
			return wire.Deferred(func() (httpx.Result, error) {
				if once.Swap(true) {
					endedTwice.Add(1)
				}
				ended.Add(1)
				runtime.Gosched() // let Close in between calls
				return httpx.Result{Status: http.StatusOK, Body: okEnvelope()}, nil
			})
		},
		OnOutcome: func(Outcome) { completed.Add(1) },
	})
	const clients, perClient, n = 4, 200, 3
	var (
		dispatched atomic.Int64
		wg         sync.WaitGroup
	)
	do := func(mode Mode) {
		winner, err := d.Do(baseRequest(targets(n), mode))
		dispatched.Add(1)
		if err != nil {
			t.Errorf("%v dispatch: %v", mode, err)
			return
		}
		winner.Buf.Release()
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Responsiveness delivers early and finishes on a collector.
				do([]Mode{ModeReliability, ModeResponsiveness}[i%2])
			}
		}()
	}
	for dispatched.Load() < clients*perClient/4 {
		runtime.Gosched()
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	do(ModeReliability)
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for completed.Load() < dispatched.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d dispatches completed", completed.Load(), dispatched.Load())
		}
		runtime.Gosched()
	}
	if b, e, want := begun.Load(), ended.Load(), n*dispatched.Load(); b != want || e != want {
		t.Fatalf("%d calls begun, %d ended, want %d each", b, e, want)
	}
	if twice := endedTwice.Load(); twice != 0 {
		t.Fatalf("%d calls ended twice", twice)
	}
}
