package faulty

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"wsupgrade/internal/soap"
	"wsupgrade/internal/testutil"
)

// okHandler serves a fixed correct SOAP response carrying a digit (the
// corruptible demo shape).
func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", soap.ContentType)
		_, _ = w.Write(soap.EnvelopeRaw([]byte("<addResponse><sum>125</sum></addResponse>")))
	})
}

func get(t *testing.T, ctx context.Context, url string) (*http.Response, []byte, error) {
	t.Helper()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader("<in/>"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		return nil, nil, err
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	return res, body, err
}

// TestDecisionStreamIsDeterministic: same seed, same fault set → the
// exact same per-demand injection sequence, independent of outcomes.
func TestDecisionStreamIsDeterministic(t *testing.T) {
	faults := []Fault{{Mode: Omission, Rate: 0.3}, {Mode: Corrupt, Rate: 0.2}}
	a := Wrap(okHandler(), 42, faults...)
	b := Wrap(okHandler(), 42, faults...)
	var seqA, seqB []Mode
	for i := 0; i < 200; i++ {
		seqA = append(seqA, a.decide())
		seqB = append(seqB, b.decide())
	}
	for i := range seqA {
		if seqA[i] != seqB[i] {
			t.Fatalf("demand %d: %v vs %v — seeded streams diverged", i, seqA[i], seqB[i])
		}
	}
	counts := a.Counts()
	if counts[Omission] == 0 || counts[Corrupt] == 0 || counts[Passthrough] == 0 {
		t.Fatalf("counts = %v: every configured mode (and passthrough) should appear over 200 demands", counts)
	}
	if got := counts[Omission] + counts[Corrupt] + counts[Passthrough]; got != 200 {
		t.Fatalf("counts sum to %d, want 200", got)
	}
	if a.Demands() != 200 {
		t.Fatalf("demands = %d", a.Demands())
	}
	// A different seed produces a different schedule.
	c := Wrap(okHandler(), 43, faults...)
	diverged := false
	for i := 0; i < 200; i++ {
		if c.decide() != seqA[i] {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 produced identical 200-demand schedules")
	}
}

// TestFirstHitWins: fault order is precedence; a draw is consumed per
// fault either way, so later rates do not shift earlier decisions.
func TestFirstHitWins(t *testing.T) {
	j := Wrap(okHandler(), 7, Fault{Mode: LatencySpike, Rate: 1}, Fault{Mode: Corrupt, Rate: 1})
	for i := 0; i < 10; i++ {
		if got := j.decide(); got != LatencySpike {
			t.Fatalf("demand %d decided %v, want LatencySpike", i, got)
		}
	}
	// Rate 0 never fires.
	j0 := Wrap(okHandler(), 7, Fault{Mode: Omission, Rate: 0})
	for i := 0; i < 50; i++ {
		if got := j0.decide(); got != Passthrough {
			t.Fatalf("rate-0 fault fired: %v", got)
		}
	}
}

func TestCorruptIsWellFormedAndWrong(t *testing.T) {
	testutil.CheckGoroutines(t)
	ts := httptest.NewServer(Wrap(okHandler(), 1, Fault{Mode: Corrupt, Rate: 1}))
	defer ts.Close()
	res, body, err := get(t, context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", res.StatusCode)
	}
	parsed, err := soap.Decode(body)
	if err != nil {
		t.Fatalf("corrupt response is not well-formed: %v\n%s", err, body)
	}
	if parsed.Fault != nil {
		t.Fatal("corrupt response must not be a fault (non-evident failure)")
	}
	want := soap.EnvelopeRaw([]byte("<addResponse><sum>125</sum></addResponse>"))
	if string(body) == string(want) {
		t.Fatal("corrupt response equals the correct response")
	}
	if !strings.Contains(string(body), "<sum>225</sum>") {
		t.Fatalf("expected the first digit incremented, got %s", body)
	}
}

func TestCorruptBodyFallbacks(t *testing.T) {
	// Letters only: case flip.
	in := []byte("<r><v>abc</v></r>")
	out := corruptBody(in)
	if string(out) == string(in) || string(out) != "<r><v>Abc</v></r>" {
		t.Fatalf("letter fallback produced %s", out)
	}
	// No text at all: canned well-formed envelope.
	out = corruptBody([]byte("<r/>"))
	if _, err := soap.Decode(out); err != nil {
		t.Fatalf("no-text fallback is not parseable: %v", err)
	}
	// Digits in tag names are never touched — only text is mutated.
	in = []byte("<h1><v>x7</v></h1>")
	out = corruptBody(in)
	if !strings.Contains(string(out), "<h1>") || !strings.Contains(string(out), "</h1>") {
		t.Fatalf("tag name mutated: %s", out)
	}
	if !strings.Contains(string(out), "x8") {
		t.Fatalf("text digit not incremented: %s", out)
	}
}

// corruptBody's JSON arm: bodies opening with '{' or '[' are mutated
// under JSON rules — the result is always valid JSON that differs from
// the input.
func TestCorruptBodyJSON(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"number", `{"sum":125}`},
		{"number-in-array", `[1,2,3]`},
		{"nine-no-leading-zero", `{"sum":90}`},
		{"string-only", `{"op1Result":"abc/x"}`},
		{"digits-in-keys-guarded", `{"k1":"abc"}`},
		{"empty-object", `{}`},
		{"leading-whitespace", "  \n\t{\"sum\":7}"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := corruptBody([]byte(tc.in))
			if string(out) == tc.in {
				t.Fatalf("corrupt output equals input: %s", out)
			}
			if !json.Valid(out) {
				t.Fatalf("corrupt output is not valid JSON: %s", out)
			}
		})
	}
	// The digit mutation targets numbers, never string contents or keys.
	out := corruptBody([]byte(`{"k1":"v2","n":34}`))
	if !strings.Contains(string(out), `"k1":"v2"`) || !strings.Contains(string(out), `:44`) {
		t.Fatalf("expected the number mutated, strings untouched: %s", out)
	}
}

func TestLatencySpikeDelays(t *testing.T) {
	testutil.CheckGoroutines(t)
	ts := httptest.NewServer(Wrap(okHandler(), 1, Fault{Mode: LatencySpike, Rate: 1, Latency: 80 * time.Millisecond}))
	defer ts.Close()
	start := time.Now()
	res, body, err := get(t, context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("response after %v, want ≥ 80ms", elapsed)
	}
	if res.StatusCode != http.StatusOK || !strings.Contains(string(body), "<sum>125</sum>") {
		t.Fatalf("spiked response corrupted: %d %s", res.StatusCode, body)
	}
}

func TestOmissionHangsUntilConsumerGivesUp(t *testing.T) {
	testutil.CheckGoroutines(t)
	ts := httptest.NewServer(Wrap(okHandler(), 1, Fault{Mode: Omission, Rate: 1}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := get(t, ctx, ts.URL)
	if err == nil {
		t.Fatal("omission produced a response")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hang released after %v", elapsed)
	}
}

func TestOmissionMaxHangResetsPatientConsumer(t *testing.T) {
	testutil.CheckGoroutines(t)
	ts := httptest.NewServer(Wrap(okHandler(), 1, Fault{Mode: Omission, Rate: 1, MaxHang: 60 * time.Millisecond}))
	defer ts.Close()
	start := time.Now()
	_, _, err := get(t, context.Background(), ts.URL)
	if err == nil {
		t.Fatal("want a connection-level failure, got a response")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("MaxHang did not bound the hang: %v", elapsed)
	}
}

func TestSlowDripDeliversEventually(t *testing.T) {
	testutil.CheckGoroutines(t)
	ts := httptest.NewServer(Wrap(okHandler(), 1,
		Fault{Mode: SlowDrip, Rate: 1, DripInterval: 2 * time.Millisecond, DripChunk: 16}))
	defer ts.Close()
	start := time.Now()
	res, body, err := get(t, context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != http.StatusOK || !strings.Contains(string(body), "<sum>125</sum>") {
		t.Fatalf("dripped response wrong: %d %s", res.StatusCode, body)
	}
	// ~260 bytes at 16 bytes per 2ms ≈ ≥30ms of pacing.
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Fatalf("drip finished in %v — not paced", elapsed)
	}
}

func TestSlowDripRespectsConsumerDeadline(t *testing.T) {
	testutil.CheckGoroutines(t)
	ts := httptest.NewServer(Wrap(okHandler(), 1,
		Fault{Mode: SlowDrip, Rate: 1, DripInterval: 50 * time.Millisecond, DripChunk: 1}))
	defer ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := get(t, ctx, ts.URL)
	if err == nil {
		t.Fatal("drip outran a 120ms deadline despite ~13s of pacing")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline fired after %v", elapsed)
	}
}

func TestOversizeStreamsDeclaredSize(t *testing.T) {
	testutil.CheckGoroutines(t)
	const size = 256 << 10
	ts := httptest.NewServer(Wrap(okHandler(), 1, Fault{Mode: Oversize, Rate: 1, SizeBytes: size}))
	defer ts.Close()
	res, body, err := get(t, context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if res.ContentLength != size {
		t.Fatalf("Content-Length = %d, want %d", res.ContentLength, size)
	}
	if len(body) != size {
		t.Fatalf("body = %d bytes, want %d", len(body), size)
	}
}

func TestHeaderFloodEmitsBudgetedSection(t *testing.T) {
	testutil.CheckGoroutines(t)
	const size = 64 << 10
	ts := httptest.NewServer(Wrap(okHandler(), 1, Fault{Mode: HeaderFlood, Rate: 1, SizeBytes: size}))
	defer ts.Close()
	res, body, err := get(t, context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	total, flooded := 0, 0
	for k, vs := range res.Header {
		for _, v := range vs {
			total += len(k) + len(v)
		}
		if strings.HasPrefix(k, "X-Flood-") {
			flooded++
		}
	}
	if flooded < 8 || total < size {
		t.Fatalf("header section: %d flood headers, %d bytes — want ≥8 and ≥%d", flooded, total, size)
	}
	if _, err := soap.Decode(body); err != nil {
		t.Fatalf("flooded response body unparseable: %v", err)
	}
}

func TestServerCrashAndRestartKeepsAddress(t *testing.T) {
	testutil.CheckGoroutines(t)
	srv := NewServer(okHandler())
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	url := srv.URL()
	if _, _, err := get(t, context.Background(), url); err != nil {
		t.Fatalf("before crash: %v", err)
	}

	srv.Stop()
	if _, _, err := get(t, context.Background(), url); err == nil {
		t.Fatal("crashed server still answering")
	}

	if err := srv.Start(); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if got := srv.URL(); got != url {
		t.Fatalf("restart moved the address: %s → %s", url, got)
	}
	if _, _, err := get(t, context.Background(), url); err != nil {
		t.Fatalf("after restart: %v", err)
	}
	if err := srv.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
}
