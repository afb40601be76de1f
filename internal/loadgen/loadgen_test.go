package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"wsupgrade/internal/soap"
	"wsupgrade/internal/testutil"
)

// boot deploys a minimal healthy unit (two clean releases) for driving.
func boot(t *testing.T) *deployment {
	t.Helper()
	d, err := deploy(1, unitSpec{
		name: "svc",
		old:  releaseSpec{version: "1.0"},
		new:  releaseSpec{version: "1.1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.close)
	return d
}

// TestClosedLoopAgainstFleet is the acceptance loop: drive a
// fleet-shaped deployment over real TCP, get latency percentiles and
// verdict counts back as JSON.
func TestClosedLoopAgainstFleet(t *testing.T) {
	testutil.CheckGoroutines(t)
	d := boot(t)
	rep, err := Run(context.Background(), Options{
		URLs:        []string{d.unitURL("svc")},
		Concurrency: 3,
		Requests:    60,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "closed" || rep.Requests != 60 {
		t.Fatalf("mode=%s requests=%d, want closed/60", rep.Mode, rep.Requests)
	}
	if rep.Verdicts[VerdictOK] != 60 {
		t.Fatalf("verdicts = %v, want 60 ok against a healthy unit", rep.Verdicts)
	}
	if rep.Winners["1.0"] != 60 {
		t.Fatalf("winners = %v: Observation phase must deliver the old release", rep.Winners)
	}
	if rep.LatencyMS.P50 <= 0 || rep.LatencyMS.P99 < rep.LatencyMS.P50 || rep.LatencyMS.Max <= 0 {
		t.Fatalf("latency summary inconsistent: %+v", rep.LatencyMS)
	}
	if rep.RPS <= 0 || rep.DurationMS <= 0 {
		t.Fatalf("rates missing: rps=%v duration=%vms", rep.RPS, rep.DurationMS)
	}

	// The JSON summary is machine-readable: round-trip it.
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Verdicts[VerdictOK] != 60 || back.LatencyMS.P99 != rep.LatencyMS.P99 {
		t.Fatalf("JSON round-trip lost data: %+v", back)
	}
}

// TestOpenLoopHoldsSchedule: the pacer must issue demands at the target
// rate against a healthy fast target.
func TestOpenLoopHoldsSchedule(t *testing.T) {
	testutil.CheckGoroutines(t)
	d := boot(t)
	rep, err := Run(context.Background(), Options{
		URLs:     []string{d.unitURL("svc")},
		OpenLoop: true,
		RPS:      200,
		Duration: 600 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" || rep.TargetRPS != 200 {
		t.Fatalf("mode=%s targetRps=%v", rep.Mode, rep.TargetRPS)
	}
	// ~120 scheduled; allow wide slack for CI noise but require the
	// schedule to have actually driven arrivals.
	if rep.Requests < 60 || rep.Requests > 150 {
		t.Fatalf("open loop issued %d demands for 200rps × 0.6s", rep.Requests)
	}
	if rep.Verdicts[VerdictOK] != rep.Requests {
		t.Fatalf("verdicts = %v", rep.Verdicts)
	}
}

// TestOpenLoopChargesQueueing: with a stalled target and 1 worker, the
// open loop must charge waiting demands their scheduled-time latency
// (coordinated-omission resistance) instead of silently not sending them.
func TestOpenLoopChargesQueueing(t *testing.T) {
	testutil.CheckGoroutines(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(50 * time.Millisecond) // each demand stalls the lone worker
		w.Header().Set("Content-Type", soap.ContentType)
		_, _ = w.Write(soap.EnvelopeRaw([]byte("<addResponse><sum>0</sum></addResponse>")))
	}))
	defer ts.Close()
	rep, err := Run(context.Background(), Options{
		URLs:        []string{ts.URL},
		OpenLoop:    true,
		RPS:         100,
		Duration:    400 * time.Millisecond,
		Concurrency: 1,
		Seed:        7,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 100rps schedule, 20 demands/s of capacity: the last completed
	// demand waited most of the run. p99 must reflect queueing, far
	// above the 50ms service time a closed loop would report.
	if rep.LatencyMS.Max < 150 {
		t.Fatalf("max latency %.1fms: queueing delay not charged (CO-resistant measurement broken)", rep.LatencyMS.Max)
	}
}

func TestOptionValidation(t *testing.T) {
	cases := []Options{
		{},                           // no URLs
		{URLs: []string{"http://x"}}, // closed loop without a stop condition
		{URLs: []string{"http://x"}, OpenLoop: true, Duration: time.Second}, // no RPS
		{URLs: []string{"http://x"}, OpenLoop: true, RPS: 10},               // no duration
		{URLs: []string{"http://x"}, Requests: 1, Operation: "subtract"},    // unknown op
	}
	for i, opts := range cases {
		if _, err := Run(context.Background(), opts); !errors.Is(err, ErrBadOptions) {
			t.Fatalf("case %d: err = %v, want ErrBadOptions", i, err)
		}
	}
}

// TestVerdictClassification exercises post()'s outcome taxonomy against
// handcrafted endpoints.
func TestVerdictClassification(t *testing.T) {
	testutil.CheckGoroutines(t)
	client := &http.Client{}
	defer client.CloseIdleConnections()
	envelope := soap.EnvelopeRaw([]byte("<addRequest><a>1</a><b>2</b></addRequest>"))
	checkSum3 := func(body []byte) bool {
		parsed, err := soap.Decode(body)
		if err != nil || parsed.Fault != nil {
			return false
		}
		return bytes.Contains(body, []byte("<sum>3</sum>"))
	}
	serve := func(status int, winner string, body []byte) *httptest.Server {
		return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if winner != "" {
				w.Header().Set("X-Wsupgrade-Winner", winner)
			}
			w.Header().Set("Content-Type", soap.ContentType)
			w.WriteHeader(status)
			_, _ = w.Write(body)
		}))
	}

	okSrv := serve(http.StatusOK, "1.0", soap.EnvelopeRaw([]byte("<addResponse><sum>3</sum></addResponse>")))
	defer okSrv.Close()
	wrongSrv := serve(http.StatusOK, "1.1", soap.EnvelopeRaw([]byte("<addResponse><sum>4</sum></addResponse>")))
	defer wrongSrv.Close()
	faultBody := soap.FaultEnvelope(soap.ServerFault("boom"))
	faultSrv := serve(http.StatusInternalServerError, "", faultBody)
	defer faultSrv.Close()
	rejectSrv := serve(http.StatusNotFound, "", []byte("nope"))
	defer rejectSrv.Close()

	ctx := context.Background()
	if v, w := post(ctx, client, okSrv.URL, soap.ContentType, envelope, checkSum3); v != VerdictOK || w != "1.0" {
		t.Fatalf("ok endpoint: verdict=%s winner=%s", v, w)
	}
	if v, w := post(ctx, client, wrongSrv.URL, soap.ContentType, envelope, checkSum3); v != VerdictWrong || w != "1.1" {
		t.Fatalf("wrong endpoint: verdict=%s winner=%s", v, w)
	}
	if v, _ := post(ctx, client, faultSrv.URL, soap.ContentType, envelope, checkSum3); v != VerdictFault {
		t.Fatalf("fault endpoint: verdict=%s", v)
	}
	if v, _ := post(ctx, client, rejectSrv.URL, soap.ContentType, envelope, checkSum3); v != VerdictRejected {
		t.Fatalf("404 endpoint: verdict=%s", v)
	}

	// Timeout: a hung endpoint with a short per-request deadline. Drain
	// the request body first — the server only notices an abandoned
	// connection (and cancels the request context) once it is reading.
	hung := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer hung.Close()
	shortCtx, cancel := context.WithTimeout(ctx, 80*time.Millisecond)
	defer cancel()
	if v, _ := post(shortCtx, client, hung.URL, soap.ContentType, envelope, checkSum3); v != VerdictTimeout {
		t.Fatalf("hung endpoint: verdict=%s, want timeout", v)
	}

	// Transport: nothing listening.
	deadSrv := serve(http.StatusOK, "", nil)
	deadURL := deadSrv.URL
	deadSrv.Close()
	if v, _ := post(ctx, client, deadURL, soap.ContentType, envelope, checkSum3); v != VerdictTransport {
		t.Fatalf("dead endpoint: verdict=%s, want transport", v)
	}
}

// TestOperation1Load: the secondary demo operation is client-checkable
// too.
func TestOperation1Load(t *testing.T) {
	testutil.CheckGoroutines(t)
	d := boot(t)
	rep, err := Run(context.Background(), Options{
		URLs:      []string{d.unitURL("svc")},
		Operation: "operation1",
		Requests:  20,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdicts[VerdictOK] != 20 {
		t.Fatalf("operation1 verdicts = %v", rep.Verdicts)
	}
}

// spinTransport answers every request after busy-waiting for a fixed
// time (a sleep is not this precise), so a run's latencies sit just
// above a known value.
type spinTransport time.Duration

func (d spinTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	for start := time.Now(); time.Since(start) < time.Duration(d); {
	}
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: http.NoBody, Request: req}, nil
}

// TestSubMillisecondPercentilesResolve: at the default 10 s timeout a
// p50 of some 50 µs and one of some 500 µs must read differently. With
// equal-width bins both were interpolations inside the first 610 µs bin
// and read 0.305 ms.
func TestSubMillisecondPercentilesResolve(t *testing.T) {
	p50 := func(spin time.Duration) float64 {
		rep, err := Run(context.Background(), Options{
			URLs:        []string{"http://stub.invalid/"},
			Concurrency: 1,
			Requests:    300,
			Client:      &http.Client{Transport: spinTransport(spin)},
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.LatencyMS.P50 > rep.LatencyMS.Max || rep.LatencyMS.P99 > rep.LatencyMS.Max*1.002 {
			t.Fatalf("percentiles beyond the exact maximum: %+v", rep.LatencyMS)
		}
		return rep.LatencyMS.P50
	}
	fast, slow := p50(50*time.Microsecond), p50(500*time.Microsecond)
	if fast < 0.05 || fast > 0.3 {
		t.Errorf("p50 of a 50 µs target = %.4f ms, want it just above 0.05", fast)
	}
	if slow < 0.5 || slow < 2*fast {
		t.Errorf("p50 of a 500 µs target = %.4f ms (50 µs target: %.4f ms): the two must read apart", slow, fast)
	}
}
