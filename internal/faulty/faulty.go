// Package faulty injects the paper's §5.1 failure model into any
// release endpoint, on demand and deterministically.
//
// The mediator's dependability argument rests on how it behaves when a
// release misbehaves: responses that never come (omission), responses
// that come late (latency spikes), responses that are wrong but look
// right (the non-evident failures only diversity detects), processes
// that crash and restart, and adversarial wire behaviour — bodies that
// drip one byte at a time, bodies that never end, header sections that
// flood the reader. This package wraps a real release handler and
// produces each of those failure modes with a seeded, reproducible
// injection stream, so load campaigns and unit tests can script "10%
// omission" or "every response corrupted" and replay the exact same
// fault sequence on every run.
//
// An Injector decides per demand: each configured Fault draws once from
// the seeded stream, in configuration order, and the first hit fires.
// Decisions are serialized, so with a fixed seed and a fixed demand
// count the multiset of injected faults is exactly reproducible — and
// under single-threaded drive, the per-demand sequence is too.
//
// Crash/restart of the listener — the §5.1 crash failure — is a
// property of the hosting process, not of a handler, so it lives in
// Server: a restartable listener pinned to its first-bound address.
package faulty

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"wsupgrade/internal/soap"
	"wsupgrade/internal/xrand"
)

// Mode is one §5.1 failure mode.
type Mode int

const (
	// Passthrough serves the wrapped handler untouched.
	Passthrough Mode = iota
	// LatencySpike delays the response by Fault.Latency — the
	// responsiveness failure of §2/§5.1 (late service delivery).
	LatencySpike
	// Omission accepts the request and never responds: the connection
	// hangs until the consumer gives up (or Fault.MaxHang force-closes
	// it). §5.1's omission failure.
	Omission
	// Corrupt serves a well-formed SOAP response with wrong content —
	// the non-evident value failure only adjudication can catch.
	Corrupt
	// Crash is reported by Server for demands that arrive while the
	// listener is down; an Injector never produces it. Defined here so
	// the taxonomy is complete in one place.
	Crash
	// SlowDrip serves the correct response body a few bytes at a time
	// with long pauses — the read-deadline adversary.
	SlowDrip
	// Oversize streams a response body of Fault.SizeBytes — the
	// MaxResponseBytes adversary.
	Oversize
	// HeaderFlood emits a header section of roughly Fault.SizeBytes
	// before the body — the header-budget adversary.
	HeaderFlood
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Passthrough:
		return "passthrough"
	case LatencySpike:
		return "latency-spike"
	case Omission:
		return "omission"
	case Corrupt:
		return "corrupt"
	case Crash:
		return "crash"
	case SlowDrip:
		return "slow-drip"
	case Oversize:
		return "oversize"
	case HeaderFlood:
		return "header-flood"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Fault configures one failure mode's injection.
type Fault struct {
	// Mode is the failure mode to inject.
	Mode Mode
	// Rate is the per-demand injection probability in [0,1].
	Rate float64
	// Latency is LatencySpike's delay (default 250ms).
	Latency time.Duration
	// MaxHang force-closes an Omission's connection after this long,
	// turning the hang into a visible connection reset. Zero waits for
	// the consumer to give up (the request context), backstopped at
	// one minute so a consumer that never cancels cannot pin the
	// handler goroutine forever.
	MaxHang time.Duration
	// DripInterval is SlowDrip's pause between writes (default 25ms).
	DripInterval time.Duration
	// DripChunk is SlowDrip's bytes per write (default 1).
	DripChunk int
	// SizeBytes sizes Oversize bodies (default 32 MiB) and HeaderFlood
	// header sections (default 2 MiB).
	SizeBytes int64
}

func (f Fault) latency() time.Duration {
	if f.Latency <= 0 {
		return 250 * time.Millisecond
	}
	return f.Latency
}

func (f Fault) dripInterval() time.Duration {
	if f.DripInterval <= 0 {
		return 25 * time.Millisecond
	}
	return f.DripInterval
}

func (f Fault) dripChunk() int {
	if f.DripChunk <= 0 {
		return 1
	}
	return f.DripChunk
}

func (f Fault) sizeBytes() int64 {
	if f.SizeBytes > 0 {
		return f.SizeBytes
	}
	if f.Mode == HeaderFlood {
		return 2 << 20
	}
	return 32 << 20
}

// maxOmissionHang backstops Omission when the consumer never
// disconnects.
const maxOmissionHang = time.Minute

// Injector wraps a release handler with seeded fault injection.
// Construct with Wrap; it is safe for concurrent use.
type Injector struct {
	inner  http.Handler
	faults []Fault

	mu      sync.Mutex
	rng     *xrand.Rand
	demands int
	counts  map[Mode]int
}

var _ http.Handler = (*Injector)(nil)

// Wrap builds an injector around inner. Faults are evaluated in order
// per demand; the first whose draw fires wins the demand.
func Wrap(inner http.Handler, seed uint64, faults ...Fault) *Injector {
	return &Injector{
		inner:  inner,
		faults: faults,
		rng:    xrand.New(seed),
		counts: make(map[Mode]int),
	}
}

// decide consumes one draw per configured fault (whether or not an
// earlier fault already fired), so the stream position after N demands
// is independent of the outcomes — the whole injection schedule is a
// pure function of (seed, demand index).
func (j *Injector) decide() Mode {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.demands++
	injected := Passthrough
	for _, f := range j.faults {
		hit := j.rng.Bool(f.Rate)
		if hit && injected == Passthrough {
			injected = f.Mode
		}
	}
	j.counts[injected]++
	return injected
}

// fault returns the configuration of the first fault with the mode.
func (j *Injector) fault(m Mode) Fault {
	for _, f := range j.faults {
		if f.Mode == m {
			return f
		}
	}
	return Fault{Mode: m}
}

// Demands returns how many demands the injector has decided.
func (j *Injector) Demands() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.demands
}

// Counts returns a copy of the per-mode injection counters (Passthrough
// counts the untouched demands).
func (j *Injector) Counts() map[Mode]int {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[Mode]int, len(j.counts))
	for k, v := range j.counts {
		out[k] = v
	}
	return out
}

// ServeHTTP injects this demand's decided failure mode.
func (j *Injector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch mode := j.decide(); mode {
	case LatencySpike:
		j.serveLatency(w, r)
	case Omission:
		j.serveOmission(w, r)
	case Corrupt:
		j.serveCorrupt(w, r)
	case SlowDrip:
		j.serveSlowDrip(w, r)
	case Oversize:
		j.serveOversize(w, r)
	case HeaderFlood:
		j.serveHeaderFlood(w, r)
	default:
		j.inner.ServeHTTP(w, r)
	}
}

func (j *Injector) serveLatency(w http.ResponseWriter, r *http.Request) {
	f := j.fault(LatencySpike)
	t := time.NewTimer(f.latency())
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.Context().Done():
		return
	}
	j.inner.ServeHTTP(w, r)
}

func (j *Injector) serveOmission(w http.ResponseWriter, r *http.Request) {
	// Accept-then-hang: consume the request so the peer's write
	// completes, then never produce a response byte.
	drain(r)
	f := j.fault(Omission)
	hang := f.MaxHang
	forced := hang > 0
	if hang <= 0 {
		hang = maxOmissionHang
	}
	t := time.NewTimer(hang)
	defer t.Stop()
	select {
	case <-r.Context().Done():
		// The consumer gave up; returning writes nothing the peer will
		// ever see.
	case <-t.C:
		if forced {
			// Turn the hang into a connection reset so the failure is
			// an omission even against an infinitely patient consumer.
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					_ = conn.Close()
				}
			}
		}
	}
}

func (j *Injector) serveCorrupt(w http.ResponseWriter, r *http.Request) {
	rec := newRecorder()
	j.inner.ServeHTTP(rec, r)
	body := corruptBody(rec.body.Bytes())
	copyHeader(w.Header(), rec.header)
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(rec.status())
	_, _ = w.Write(body)
}

func (j *Injector) serveSlowDrip(w http.ResponseWriter, r *http.Request) {
	f := j.fault(SlowDrip)
	rec := newRecorder()
	j.inner.ServeHTTP(rec, r)
	body := rec.body.Bytes()
	copyHeader(w.Header(), rec.header)
	// An explicit Content-Length makes the reader wait for bytes that
	// are in no hurry to arrive — the read-deadline path, not the
	// EOF-framed path.
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(rec.status())
	flusher, _ := w.(http.Flusher)
	interval := f.dripInterval()
	chunk := f.dripChunk()
	for off := 0; off < len(body); off += chunk {
		end := off + chunk
		if end > len(body) {
			end = len(body)
		}
		if _, err := w.Write(body[off:end]); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		t := time.NewTimer(interval)
		select {
		case <-t.C:
		case <-r.Context().Done():
			t.Stop()
			return
		}
	}
}

// oversizePad is the shared padding block oversize bodies stream from.
var oversizePad = bytes.Repeat([]byte("x"), 32<<10)

func (j *Injector) serveOversize(w http.ResponseWriter, r *http.Request) {
	f := j.fault(Oversize)
	size := f.sizeBytes()
	w.Header().Set("Content-Type", soap.ContentType)
	w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	var written int64
	for written < size {
		chunk := oversizePad
		if remaining := size - written; remaining < int64(len(chunk)) {
			chunk = chunk[:remaining]
		}
		n, err := w.Write(chunk)
		written += int64(n)
		if err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		select {
		case <-r.Context().Done():
			return
		default:
		}
	}
}

func (j *Injector) serveHeaderFlood(w http.ResponseWriter, r *http.Request) {
	f := j.fault(HeaderFlood)
	size := f.sizeBytes()
	// ~4 KiB per header line; the server writes them all before the
	// status line reaches the wire, so the client sees one giant header
	// section.
	value := string(oversizePad[:4<<10])
	h := w.Header()
	var emitted int64
	for i := 0; emitted < size; i++ {
		h.Set("X-Flood-"+strconv.Itoa(i), value)
		emitted += int64(len(value)) + 16
	}
	h.Set("Content-Type", soap.ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(soap.EnvelopeRaw([]byte("<flooded/>")))
}

// drain consumes and discards the request body.
func drain(r *http.Request) {
	buf := make([]byte, 4<<10)
	for {
		if _, err := r.Body.Read(buf); err != nil {
			return
		}
	}
}

func copyHeader(dst, src http.Header) {
	for k, vs := range src {
		if k == "Content-Length" {
			continue
		}
		for _, v := range vs {
			dst.Add(k, v)
		}
	}
}

// ---------------------------------------------------------------------------
// Response corruption

// corruptBody produces a well-formed variant of a response with wrong
// content: the first digit in content position is changed (123 → 223 —
// a plausible, structurally identical wrong answer), falling back to
// flipping a content letter's case, falling back to a canned
// well-formed body when there is no content at all. The result always
// differs from the input and always parses. Bodies that open with '{'
// or '[' are mutated under JSON rules (digits outside strings, letters
// inside them), everything else under XML rules (text strictly between
// tags), so the corruption stays non-evident for both protocols.
func corruptBody(body []byte) []byte {
	if isJSONBody(body) {
		return corruptJSONBody(body)
	}
	out := append([]byte(nil), body...)
	if i := firstTextByte(out, isDigit); i >= 0 {
		out[i] = '0' + (out[i]-'0'+1)%10
		return out
	}
	if i := firstTextByte(out, isLetter); i >= 0 {
		out[i] ^= 0x20 // flip ASCII case
		return out
	}
	return soap.EnvelopeRaw([]byte("<corruptedResponse/>"))
}

// isJSONBody reports whether the body's first non-space byte opens a
// JSON object or array.
func isJSONBody(body []byte) bool {
	for _, c := range body {
		switch c {
		case ' ', '\t', '\r', '\n':
			continue
		default:
			return c == '{' || c == '['
		}
	}
	return false
}

// corruptJSONBody is corruptBody's JSON arm. A digit outside string
// literals is part of a number: changing it (9 steps down so no leading
// zero can appear) keeps the document valid. Failing that, a letter
// inside a string flips case. Failing that, a canned object.
func corruptJSONBody(body []byte) []byte {
	out := append([]byte(nil), body...)
	if i := firstJSONByte(out, false, isDigit); i >= 0 {
		if out[i] == '9' {
			out[i] = '8'
		} else {
			out[i]++
		}
		return out
	}
	if i := firstJSONByte(out, true, isLetter); i >= 0 {
		out[i] ^= 0x20 // flip ASCII case
		return out
	}
	return []byte(`{"corrupted":true}`)
}

// firstJSONByte returns the index of the first byte satisfying pred
// that sits inside (inString) or outside (!inString) a JSON string
// literal, honouring escapes, or -1. Bytes in the other region — and
// the quotes and escapes themselves — are never touched, so the
// mutation cannot break well-formedness.
func firstJSONByte(body []byte, inString bool, pred func(byte) bool) int {
	in, esc := false, false
	for i, c := range body {
		switch {
		case esc:
			esc = false
		case in && c == '\\':
			esc = true
		case c == '"':
			in = !in
		default:
			if in == inString && pred(c) {
				return i
			}
		}
	}
	return -1
}

func isDigit(c byte) bool  { return c >= '0' && c <= '9' }
func isLetter(c byte) bool { return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') }

// firstTextByte returns the index of the first byte satisfying pred
// that sits in element text (strictly between '>' and '<'), or -1.
// Text inside tags, attributes and names is never touched, so the
// mutation cannot break well-formedness.
func firstTextByte(body []byte, pred func(byte) bool) int {
	inText := false
	for i, c := range body {
		switch c {
		case '>':
			inText = true
		case '<':
			inText = false
		default:
			if inText && pred(c) {
				return i
			}
		}
	}
	return -1
}

// ---------------------------------------------------------------------------
// Minimal response recorder (the inner handler's output, buffered for
// mutation before it reaches the wire)

type recorder struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func newRecorder() *recorder { return &recorder{header: make(http.Header)} }

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

// ---------------------------------------------------------------------------
// Crash/restart listener

// Server hosts a handler on a restartable listener: Stop is the §5.1
// crash failure (active connections are severed, the port stops
// accepting), Start after a Stop is the restart — on the same address,
// so deployed endpoint URLs stay valid across the crash.
type Server struct {
	handler http.Handler

	mu   sync.Mutex
	addr string // pinned on first Start
	srv  *http.Server
	ln   net.Listener
}

// NewServer builds a stopped server for the handler. Call Start.
func NewServer(h http.Handler) *Server { return &Server{handler: h} }

// Start binds the listener (first time on an ephemeral loopback port,
// thereafter on the pinned address) and serves until Stop.
func (s *Server) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv != nil {
		return fmt.Errorf("faulty: server already running on %s", s.addr)
	}
	addr := s.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	var ln net.Listener
	var err error
	// The previous incarnation's socket can linger briefly; retry the
	// pinned address instead of failing the restart.
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("faulty: binding %s: %w", addr, err)
	}
	s.addr = ln.Addr().String()
	s.ln = ln
	s.srv = &http.Server{Handler: s.handler, ReadHeaderTimeout: 10 * time.Second}
	srv := s.srv
	go func() { _ = srv.Serve(ln) }()
	return nil
}

// URL returns the server's base URL. Valid after the first Start, and
// stable across Stop/Start cycles.
func (s *Server) URL() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return "http://" + s.addr
}

// Stop crashes the server: the listener closes and every active
// connection is severed immediately (no draining — this is a failure,
// not a shutdown). Idempotent.
func (s *Server) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.srv == nil {
		return
	}
	_ = s.srv.Close()
	s.srv = nil
	s.ln = nil
}

// Close stops the server for good.
func (s *Server) Close() { s.Stop() }
