// Package loadgen drives a deployed mediator (an engine or a fleet
// unit) over real TCP and reports what the microbenchmarks cannot:
// latency percentiles under concurrency, error and verdict breakdowns,
// and winner distributions, as one machine-readable JSON summary.
//
// Two drive modes mirror the standard load-testing dichotomy:
//
//   - closed loop: N workers each run request → response → next
//     request. Throughput is an outcome; back-pressure from the target
//     slows the workers down.
//   - open loop: demands arrive on a fixed schedule (target RPS)
//     regardless of how the target is doing, and each demand's latency
//     is measured from its SCHEDULED start — a demand that had to wait
//     for a free connection slot is charged that wait. This is the
//     coordinated-omission-resistant mode: a stalled target cannot
//     silence the load that its stall prevented from being sent.
//
// Latencies accumulate into per-worker stats.Histogram instances merged
// after the run, so percentile math is shared with the monitoring
// subsystem and scales to millions of samples at fixed memory.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"wsupgrade/internal/httpx"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/stats"
	"wsupgrade/internal/xrand"
)

// ErrBadOptions reports an invalid load configuration.
var ErrBadOptions = errors.New("loadgen: bad options")

// Verdict keys of Report.Verdicts.
const (
	// VerdictOK is a correct response (the adjudicated winner matches
	// the operation's expected result).
	VerdictOK = "ok"
	// VerdictWrong is a well-formed 200 response with the wrong content
	// — a non-evident failure that slipped through adjudication (§5.2).
	VerdictWrong = "wrong"
	// VerdictFault is a SOAP fault (evident failure, delivered as such).
	VerdictFault = "fault"
	// VerdictTimeout is a demand the consumer's deadline abandoned.
	VerdictTimeout = "timeout"
	// VerdictTransport is a connection-level failure (refused, reset).
	VerdictTransport = "transport"
	// VerdictRejected is any other HTTP status.
	VerdictRejected = "rejected"
)

// Options parameterizes one load run.
type Options struct {
	// URLs are the SOAP endpoints to drive (an engine root or fleet
	// unit base, e.g. "http://host:port/flights/"). Workers round-robin
	// across them. At least one.
	URLs []string
	// Operation selects the demo operation to invoke: "add" (default)
	// or "operation1". Both have client-checkable correct answers.
	Operation string
	// Protocol selects the gateway wire protocol: "soap" (default) or
	// "json". JSON demands route by URL path (<target>/<operation>)
	// with application/json bodies.
	Protocol string
	// OpenLoop selects the target-RPS open-loop mode; the default is
	// closed-loop.
	OpenLoop bool
	// Concurrency is the worker count (closed loop) or the maximum
	// in-flight demands (open loop). Default 4 (closed), 32 (open).
	Concurrency int
	// RPS is the open-loop arrival rate. Required when OpenLoop.
	RPS float64
	// Requests stops the run after this many demands (closed loop).
	Requests int
	// Duration stops the run after this long. Open loop requires it;
	// closed loop requires Requests or Duration.
	Duration time.Duration
	// Timeout bounds each demand (default 10s). Also the top of the
	// latency histogram's range.
	Timeout time.Duration
	// Client overrides the consumer-side HTTP client.
	Client *http.Client
	// Seed drives request-parameter generation.
	Seed uint64
	// HistogramBins sizes the latency histograms (default 1<<14). The
	// bins are geometric — see latencyFloorMS.
	HistogramBins int
}

func (o *Options) normalize() error {
	if len(o.URLs) == 0 {
		return fmt.Errorf("%w: no target URLs", ErrBadOptions)
	}
	if o.Operation == "" {
		o.Operation = "add"
	}
	if o.Operation != "add" && o.Operation != "operation1" {
		return fmt.Errorf("%w: unknown operation %q", ErrBadOptions, o.Operation)
	}
	if o.Protocol == "" {
		o.Protocol = "soap"
	}
	if o.Protocol != "soap" && o.Protocol != "json" {
		return fmt.Errorf("%w: unknown protocol %q", ErrBadOptions, o.Protocol)
	}
	if o.Concurrency <= 0 {
		if o.OpenLoop {
			o.Concurrency = 32
		} else {
			o.Concurrency = 4
		}
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	if o.HistogramBins <= 0 {
		o.HistogramBins = 1 << 14
	}
	if o.OpenLoop {
		if o.RPS <= 0 {
			return fmt.Errorf("%w: open loop needs a target RPS", ErrBadOptions)
		}
		if o.Duration <= 0 {
			return fmt.Errorf("%w: open loop needs a duration", ErrBadOptions)
		}
	} else if o.Requests <= 0 && o.Duration <= 0 {
		return fmt.Errorf("%w: closed loop needs a request count or duration", ErrBadOptions)
	}
	return nil
}

// LatencySummary is the merged latency distribution in milliseconds.
type LatencySummary struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// Report is one load run's machine-readable summary.
type Report struct {
	Mode        string         `json:"mode"`
	Targets     []string       `json:"targets"`
	Operation   string         `json:"operation"`
	Protocol    string         `json:"protocol"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Concurrency int            `json:"concurrency"`
	TargetRPS   float64        `json:"targetRps,omitempty"`
	Requests    int            `json:"requests"`
	DurationMS  float64        `json:"durationMs"`
	RPS         float64        `json:"rps"`
	LatencyMS   LatencySummary `json:"latencyMs"`
	// Verdicts breaks the demands down by consumer-observed outcome.
	Verdicts map[string]int `json:"verdicts"`
	// Winners counts delivered responses by the release that won
	// adjudication (the X-Wsupgrade-Winner header).
	Winners map[string]int `json:"winners,omitempty"`
}

// latencyFloorMS is the bottom of the latency histograms' range: one
// microsecond, below anything a socket round trip takes. The histograms
// bin the logarithm of the latency over [latencyFloorMS, Timeout], so
// every bin spans the same ratio — 0.1 % at the defaults — and a p50 of
// 50 µs is resolved as well as a p99 of 5 s. (Equal-width bins over a
// 10 s timeout were 610 µs wide: every percentile under that was an
// interpolation inside the first bin.)
const latencyFloorMS = 0.001

// worker accumulates one goroutine's observations, merged after the run
// (no shared state on the demand path).
type worker struct {
	hist     *stats.Histogram
	summary  stats.Summary
	verdicts map[string]int
	winners  map[string]int
	requests int
	rng      *xrand.Rand
}

// Run executes one load run. The context cancels it early; a cancelled
// run still returns the observations collected so far.
func Run(ctx context.Context, opts Options) (Report, error) {
	if err := opts.normalize(); err != nil {
		return Report{}, err
	}
	client := opts.Client
	if client == nil {
		client = httpx.NewPooledClient(opts.Timeout+5*time.Second, len(opts.URLs))
		defer client.CloseIdleConnections()
	}

	// Duration bounds *scheduling* only: demands already in flight when
	// it expires finish under their own per-demand Timeout. Cutting them
	// at the duration edge would misclassify an arbitrary tail of
	// healthy demands as timeouts.
	schedCtx := ctx
	var cancel context.CancelFunc
	if opts.Duration > 0 {
		schedCtx, cancel = context.WithTimeout(ctx, opts.Duration)
		defer cancel()
	}

	histHi := math.Log(math.Max(float64(opts.Timeout)/float64(time.Millisecond), 2*latencyFloorMS))
	workers := make([]*worker, opts.Concurrency)
	master := xrand.New(opts.Seed)
	for i := range workers {
		h, err := stats.NewHistogram(math.Log(latencyFloorMS), histHi, opts.HistogramBins)
		if err != nil {
			return Report{}, err
		}
		workers[i] = &worker{
			hist:     h,
			verdicts: make(map[string]int),
			winners:  make(map[string]int),
			rng:      master.Split(),
		}
	}

	start := time.Now()
	if opts.OpenLoop {
		runOpen(schedCtx, ctx, client, opts, workers)
	} else {
		runClosed(schedCtx, ctx, client, opts, workers)
	}
	elapsed := time.Since(start)

	return assemble(opts, workers, elapsed)
}

// runClosed: each worker loops request → response → next. schedCtx
// gates issuing new demands; demandCtx scopes demands themselves.
func runClosed(schedCtx, demandCtx context.Context, client *http.Client, opts Options, workers []*worker) {
	var mu sync.Mutex
	issued := 0
	// claim hands out demand slots so a request cap is exact even with
	// many workers.
	claim := func() bool {
		if opts.Requests <= 0 {
			return schedCtx.Err() == nil
		}
		mu.Lock()
		defer mu.Unlock()
		if issued >= opts.Requests || schedCtx.Err() != nil {
			return false
		}
		issued++
		return true
	}
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			for claim() {
				url := opts.URLs[(i+w.requests)%len(opts.URLs)]
				doOne(demandCtx, client, opts, w, url, time.Now())
			}
		}(i, w)
	}
	wg.Wait()
}

// runOpen: a pacer emits scheduled start times at the target rate; a
// bounded worker pool consumes them. Latency is measured from the
// scheduled time, so queueing delay behind a saturated target is
// charged to the target, not silently dropped. schedCtx gates the
// pacer; demandCtx scopes demands themselves.
func runOpen(schedCtx, demandCtx context.Context, client *http.Client, opts Options, workers []*worker) {
	interval := time.Duration(float64(time.Second) / opts.RPS)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	total := int(opts.Duration.Nanoseconds()/interval.Nanoseconds()) + 1
	sched := make(chan time.Time, total)

	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			for scheduled := range sched {
				url := opts.URLs[(i+w.requests)%len(opts.URLs)]
				doOne(demandCtx, client, opts, w, url, scheduled)
			}
		}(i, w)
	}

	t0 := time.Now()
	for k := 0; k < total; k++ {
		target := t0.Add(time.Duration(k) * interval)
		if d := time.Until(target); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-schedCtx.Done():
				timer.Stop()
				close(sched)
				wg.Wait()
				return
			}
		} else if schedCtx.Err() != nil {
			break
		}
		sched <- target
	}
	close(sched)
	wg.Wait()
}

// doOne issues one demand and classifies its outcome. scheduled is the
// latency clock's zero point (now for closed loop, the pacer's slot for
// open loop).
func doOne(ctx context.Context, client *http.Client, opts Options, w *worker, url string, scheduled time.Time) {
	payload, check := w.buildRequest(opts)
	contentType := soap.ContentType
	if opts.Protocol == "json" {
		// JSON demands route by path: <target>/<operation>.
		url = strings.TrimSuffix(url, "/") + "/" + opts.Operation
		contentType = "application/json"
	}
	reqCtx, cancel := context.WithTimeout(ctx, opts.Timeout)
	verdict, winner := post(reqCtx, client, url, contentType, payload, check)
	cancel()

	latency := time.Since(scheduled)
	w.requests++
	w.verdicts[verdict]++
	if winner != "" {
		w.winners[winner]++
	}
	ms := float64(latency.Nanoseconds()) / 1e6
	w.hist.Observe(math.Log(math.Max(ms, latencyFloorMS)))
	w.summary.Observe(ms)
}

// buildRequest produces the demand payload and its correctness check.
func (w *worker) buildRequest(opts Options) ([]byte, func(body []byte) bool) {
	if opts.Protocol == "json" {
		return w.buildJSONRequest(opts.Operation)
	}
	switch opts.Operation {
	case "operation1":
		p1 := w.rng.Intn(1000)
		p2 := fmt.Sprintf("load-%d", w.rng.Intn(1000))
		env, _ := soap.Envelope(service.Operation1Request{Param1: p1, Param2: p2})
		want := fmt.Sprintf("%s/%d", p2, p1*2)
		return env, func(body []byte) bool {
			var out service.Operation1Response
			return decodeReply(body, &out) && out.Op1Result == want
		}
	default: // add
		a, b := w.rng.Intn(10000), w.rng.Intn(10000)
		env, _ := soap.Envelope(service.AddRequest{A: a, B: b})
		want := a + b
		return env, func(body []byte) bool {
			var out service.AddResponse
			return decodeReply(body, &out) && out.Sum == want
		}
	}
}

// buildJSONRequest is buildRequest's JSON-gateway arm: same logical
// demands, REST bodies.
func (w *worker) buildJSONRequest(operation string) ([]byte, func(body []byte) bool) {
	switch operation {
	case "operation1":
		p1 := w.rng.Intn(1000)
		p2 := fmt.Sprintf("load-%d", w.rng.Intn(1000))
		body, _ := json.Marshal(service.Operation1JSONRequest{Param1: p1, Param2: p2})
		want := fmt.Sprintf("%s/%d", p2, p1*2)
		return body, func(reply []byte) bool {
			var out service.Operation1JSONResponse
			return json.Unmarshal(reply, &out) == nil && out.Op1Result == want
		}
	default: // add
		a, b := w.rng.Intn(10000), w.rng.Intn(10000)
		body, _ := json.Marshal(service.AddJSONRequest{A: a, B: b})
		want := a + b
		return body, func(reply []byte) bool {
			var out service.AddJSONResponse
			return json.Unmarshal(reply, &out) == nil && out.Sum == want
		}
	}
}

// decodeReply decodes a response envelope's body element into v.
func decodeReply(envelope []byte, v interface{}) bool {
	parsed, err := soap.Decode(envelope)
	if err != nil || parsed.Fault != nil {
		return false
	}
	return parsed.DecodeBody(v) == nil
}

// post issues the demand and classifies the consumer-observed outcome.
func post(ctx context.Context, client *http.Client, url, contentType string, payload []byte, check func([]byte) bool) (verdict, winner string) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return VerdictTransport, ""
	}
	req.Header.Set("Content-Type", contentType)
	res, err := client.Do(req)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return VerdictTimeout, ""
		}
		return VerdictTransport, ""
	}
	defer res.Body.Close()
	body, err := httpx.ReadBounded(res.Body, httpx.DefaultMaxResponseBytes)
	if err != nil {
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return VerdictTimeout, ""
		}
		return VerdictTransport, ""
	}
	winner = res.Header.Get("X-Wsupgrade-Winner")
	switch res.StatusCode {
	case http.StatusOK:
		if check(body) {
			return VerdictOK, winner
		}
		return VerdictWrong, winner
	case http.StatusInternalServerError:
		return VerdictFault, winner
	default:
		return VerdictRejected, winner
	}
}

// assemble merges the per-worker observations into the report.
func assemble(opts Options, workers []*worker, elapsed time.Duration) (Report, error) {
	merged := workers[0].hist
	var summary stats.Summary
	verdicts := make(map[string]int)
	winners := make(map[string]int)
	requests := 0
	for i, w := range workers {
		if i > 0 {
			if err := merged.Merge(w.hist); err != nil {
				return Report{}, err
			}
		}
		summary.Merge(w.summary)
		for k, v := range w.verdicts {
			verdicts[k] += v
		}
		for k, v := range w.winners {
			winners[k] += v
		}
		requests += w.requests
	}
	mode := "closed"
	if opts.OpenLoop {
		mode = "open"
	}
	rep := Report{
		Mode:        mode,
		Targets:     opts.URLs,
		Operation:   opts.Operation,
		Protocol:    opts.Protocol,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Concurrency: opts.Concurrency,
		TargetRPS:   opts.RPS,
		Requests:    requests,
		DurationMS:  float64(elapsed.Nanoseconds()) / 1e6,
		Verdicts:    verdicts,
		Winners:     winners,
	}
	if elapsed > 0 {
		rep.RPS = float64(requests) / elapsed.Seconds()
	}
	if requests > 0 {
		rep.LatencyMS = LatencySummary{
			P50:  math.Exp(merged.Quantile(0.50)),
			P95:  math.Exp(merged.Quantile(0.95)),
			P99:  math.Exp(merged.Quantile(0.99)),
			Max:  summary.Max(),
			Mean: summary.Mean(),
		}
	}
	return rep, nil
}

// WriteJSON writes the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
