// Package httpx is the HTTP transport substrate: clients with sane
// timeouts and tuned connection pools, retry of transient failures,
// bounded response reads, and latency instrumentation.
//
// Retrying maps directly onto the paper's failure taxonomy (§2.1):
// a *transient* failure "can be tolerated by using generic recovery
// techniques such as rollback and retry even if the same code is used",
// whereas non-transient failures need the diverse redundancy the upgrade
// middleware provides. This package supplies the first, cheap line of
// defence; internal/core supplies the second.
package httpx

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"wsupgrade/internal/pool"
)

// ErrBadPolicy reports an invalid retry policy.
var ErrBadPolicy = errors.New("httpx: bad retry policy")

// ErrTooLarge reports a message body that exceeds its size bound. A
// release streaming an oversized response is an evident failure of that
// release, not a reason to exhaust the proxy's memory.
var ErrTooLarge = errors.New("httpx: message exceeds size limit")

// DefaultMaxResponseBytes caps release response bodies when RetryPolicy
// leaves MaxResponseBytes zero. It matches the proxy's consumer-side
// request limit, so neither direction of the mediated exchange is
// unbounded.
const DefaultMaxResponseBytes = 10 << 20

// DefaultMaxIdleConnsPerHost sizes the keep-alive pool NewPooledClient
// keeps per release endpoint. http.DefaultTransport keeps only 2, which
// starves a fan-out that hits the same release host from many concurrent
// dispatches: every burst re-dials most of its connections.
const DefaultMaxIdleConnsPerHost = 32

// NewClient returns an HTTP client with an overall per-call timeout.
// An absent response within the deadline is the evident failure the
// middleware's availability monitoring counts (§4.3).
//
// It shares http.DefaultTransport; for the middleware's fan-out traffic
// use NewPooledClient, whose per-host idle pool matches parallel
// dispatch.
func NewClient(timeout time.Duration) *http.Client {
	return &http.Client{Timeout: timeout}
}

// NewPooledClient returns an HTTP client with a dedicated transport tuned
// for the middleware's traffic shape: every request goes to one of a
// small, known set of release hosts, and parallel dispatch multiplies the
// concurrency per host by the number of in-flight consumer requests.
// hosts is the expected number of distinct release endpoints (used to
// size the total idle pool); values below 1 are treated as 1.
func NewPooledClient(timeout time.Duration, hosts int) *http.Client {
	if hosts < 1 {
		hosts = 1
	}
	transport := &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   5 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		ForceAttemptHTTP2:     true,
		MaxIdleConns:          DefaultMaxIdleConnsPerHost * hosts,
		MaxIdleConnsPerHost:   DefaultMaxIdleConnsPerHost,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: 1 * time.Second,
	}
	return &http.Client{Timeout: timeout, Transport: transport}
}

// bodyPool backs the bounded-read buffers. Bodies on the middleware's
// hot path are small SOAP envelopes; recycling the growth of a fresh
// buffer per exchange was measurable allocator traffic.
var bodyPool pool.BufPool

// ReadBoundedBuf reads r to EOF into a pooled buffer and transfers
// ownership of that buffer to the caller: exactly one Release (plus one
// per extra Retain) must eventually pair with the returned buffer, and
// nothing may alias its contents past that Release. Reading more than
// max bytes returns ErrTooLarge. sizeHint is the length the peer
// declared (a Content-Length), zero or negative when unknown: a hinted
// read starts in its size class and never regrows; an unhinted one
// climbs the classes, handing each outgrown buffer back as it goes.
// The hint is only a hint — max is enforced on what actually arrives.
// The read loop is hand-rolled (no io.LimitReader / bytes.Buffer
// plumbing): this runs at least twice per proxied request, and the
// wrapper structs alone were measurable.
//
//wsu:owns return
func ReadBoundedBuf(r io.Reader, sizeHint, max int64) (*pool.Buf, error) {
	if sizeHint > max {
		sizeHint = max + 1 // enough to see the overrun, no more
	}
	if sizeHint < 1 {
		sizeHint = 1 // the smallest class
	}
	b := bodyPool.GetSized(int(sizeHint))
	for {
		if len(b.B) == cap(b.B) {
			b.Grow(len(b.B) + 1) // up a class
		}
		n, err := r.Read(b.B[len(b.B):cap(b.B)])
		b.B = b.B[:len(b.B)+n]
		if int64(len(b.B)) > max {
			b.Release()
			return nil, fmt.Errorf("%w: more than %d bytes", ErrTooLarge, max)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			b.Release()
			return nil, err
		}
	}
	return b, nil
}

// InlineResponse is the largest response the codecs send as one Write
// and leave net/http to frame (the buffer pools' smallest class); a
// larger one goes out in pieces and declares its length first.
const InlineResponse = 4 << 10

// DeclareLength sets the Content-Length of the n-byte response about to
// be written to w, when n is past InlineResponse and w is an
// http.ResponseWriter whose header is still unwritten (the codecs'
// WriteBody takes an io.Writer), so that net/http does not chunk-frame
// the Writes. At or under InlineResponse net/http counts the single
// Write itself, and the header's two allocations would be pure cost.
func DeclareLength(w io.Writer, n int) {
	if rw, ok := w.(http.ResponseWriter); ok && n > InlineResponse {
		rw.Header()["Content-Length"] = []string{strconv.Itoa(n)}
	}
}

// ReadBounded reads r to EOF through a pooled scratch buffer and returns
// a right-sized, caller-owned copy. Reading more than max bytes returns
// ErrTooLarge. Callers on the request hot path use ReadBoundedBuf
// instead and skip the copy by owning the pooled buffer outright.
func ReadBounded(r io.Reader, max int64) ([]byte, error) {
	//wsu:allow poolcheck -- a non-nil error means no buffer was returned
	b, err := ReadBoundedBuf(r, 0, max)
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(b.B))
	copy(out, b.B)
	b.Release()
	return out, nil
}

// RetryPolicy controls PostXML's tolerance of transient failures and the
// size bound on response bodies.
type RetryPolicy struct {
	// Attempts is the total number of tries (≥ 1).
	Attempts int
	// Backoff is the delay before the second attempt; it doubles for
	// each further attempt.
	Backoff time.Duration
	// RetryStatus reports whether an HTTP status code is transient.
	// Nil means "retry on 5xx".
	RetryStatus func(code int) bool
	// MaxResponseBytes caps the response body; larger bodies fail the
	// exchange with ErrTooLarge (and are not retried — an oversized
	// response is not transient). Zero means DefaultMaxResponseBytes.
	MaxResponseBytes int64
}

// NoRetry is the policy with a single attempt.
var NoRetry = RetryPolicy{Attempts: 1}

// DefaultRetry makes three attempts with a 50 ms initial backoff.
var DefaultRetry = RetryPolicy{Attempts: 3, Backoff: 50 * time.Millisecond}

// Validate checks the policy.
func (p RetryPolicy) Validate() error {
	if p.Attempts < 1 {
		return fmt.Errorf("%w: attempts %d", ErrBadPolicy, p.Attempts)
	}
	if p.Backoff < 0 {
		return fmt.Errorf("%w: negative backoff", ErrBadPolicy)
	}
	if p.MaxResponseBytes < 0 {
		return fmt.Errorf("%w: negative response size limit", ErrBadPolicy)
	}
	return nil
}

// ShouldRetryStatus reports whether the policy treats an HTTP status as
// transient. It is exported so alternate transports (internal/wire)
// share PostXML's retry semantics by construction rather than by copy.
func (p RetryPolicy) ShouldRetryStatus(code int) bool {
	if p.RetryStatus != nil {
		return p.RetryStatus(code)
	}
	return code >= 500 && code != http.StatusInternalServerError
}

// BackoffFor returns the delay before the given attempt (≥ 2): Backoff
// for the second attempt, doubling for each one after. Exported for
// alternate transports; see ShouldRetryStatus.
func (p RetryPolicy) BackoffFor(attempt int) time.Duration {
	return time.Duration(float64(p.Backoff) * math.Pow(2, float64(attempt-2)))
}

// EffectiveMaxResponseBytes resolves the response cap, applying the
// default when MaxResponseBytes is zero. Exported for alternate
// transports; see ShouldRetryStatus.
func (p RetryPolicy) EffectiveMaxResponseBytes() int64 {
	if p.MaxResponseBytes == 0 {
		return DefaultMaxResponseBytes
	}
	return p.MaxResponseBytes
}

// Result is the outcome of a PostXML exchange. It is returned by
// value: the exchange runs on the dispatch hot path, and the struct is
// small enough that a heap allocation per call was measurable.
type Result struct {
	// Status is the final HTTP status code.
	Status int
	// Body is the response body.
	Body []byte
	// Header is the final response's header block. Its bytes ride in
	// BodyBuf behind Body, so it is live exactly as long as Body is.
	Header Header
	// Attempts is how many tries were made.
	Attempts int
	// Latency is the total wall time including retries.
	Latency time.Duration
	// BodyBuf, when non-nil, is the pooled buffer backing Body, and its
	// ownership transfers to the caller: one Release pairs with the
	// reference carried here, and nothing may alias Body past it. A nil
	// BodyBuf means Body is unpooled and needs no release.
	BodyBuf *pool.Buf
}

// Header is a response's header block as bytes: one "Name: value" line
// per field, each ended by '\n', in arrival order. The transport that
// produced it has checked every line (a token name, a colon, a value
// free of control bytes), so Get only has to find one; nothing is
// parsed into a map on the way to a caller that, on most replies, reads
// no header at all. A Header aliases the buffer its reply arrived in
// (Result.BodyBuf, adjudicate.Reply.Buf) and dies with it; the zero
// Header is empty.
type Header []byte

// Get returns the value of the first field called name, compared
// without regard to case, or "" when there is none — what
// http.Header.Get answers for the same response. It allocates nothing:
// the result aliases the header's own bytes, so, like Body, it must not
// be kept past the buffer's final Release (strings.Clone it to keep it).
func (h Header) Get(name string) string {
	for len(h) > 0 {
		line := []byte(h)
		if i := bytes.IndexByte(h, '\n'); i >= 0 {
			line, h = h[:i], h[i+1:]
		} else {
			h = nil
		}
		if i := bytes.IndexByte(line, ':'); i == len(name) && strings.EqualFold(aliasString(line[:i]), name) {
			return aliasString(bytes.Trim(line[i+1:], " \t"))
		}
	}
	return ""
}

// aliasString is b as a string, without the copy.
func aliasString(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// appendHeader renders hdr behind b in Header's form: what the net/http
// leg of PostXML does once per exchange, so both transports hand their
// callers the same type.
func appendHeader(b []byte, hdr http.Header) []byte {
	for name, values := range hdr {
		for _, v := range values {
			b = append(b, name...)
			b = append(b, ':', ' ')
			b = append(b, v...)
			b = append(b, '\n')
		}
	}
	return b
}

// ---------------------------------------------------------------------------
// Pooled request state for PostXML

// urlCacheMax bounds the parsed-URL cache. The middleware posts to a
// small, known set of release endpoints; an unbounded caller-controlled
// URL stream must not grow the cache forever, so past the cap URLs are
// parsed fresh per call.
const urlCacheMax = 1024

var (
	urlCache sync.Map // raw URL string → *url.URL (immutable once stored)
	urlCount atomic.Int64
)

// cachedURL parses raw once and serves the immutable result from then
// on. Callers must copy the value before mutating (pooledReq does).
func cachedURL(raw string) (*url.URL, error) {
	if v, ok := urlCache.Load(raw); ok {
		return v.(*url.URL), nil
	}
	u, err := url.Parse(raw)
	if err != nil {
		return nil, err
	}
	// Concurrent first parses of the same URL race to LoadOrStore; the
	// losers give their capacity reservation back so racing goroutines
	// cannot burn cap slots on a single key.
	if urlCount.Add(1) > urlCacheMax {
		urlCount.Add(-1)
		return u, nil
	}
	if v, loaded := urlCache.LoadOrStore(raw, u); loaded {
		urlCount.Add(-1)
		return v.(*url.URL), nil
	}
	return u, nil
}

// reqBody is a resettable request body whose Close — which the
// transport is contractually required to call once it is finished with
// the reader, even on errors — records that the transport is done. The
// recycle decision keys off that flag: a response can arrive (and
// client.Do return) while the write side is still streaming the
// request, and recycling the reader under an in-flight Read would be a
// data race.
type reqBody struct {
	bytes.Reader
	done atomic.Bool
}

func (b *reqBody) Close() error {
	b.done.Store(true)
	return nil
}

// pooledReq is the per-exchange request state PostXML recycles instead
// of rebuilding via http.NewRequestWithContext on every attempt (the
// URL parse, header map and body-reader wrappers dominated the fallback
// transport's per-call allocations). The http.Request itself is still
// materialized per attempt — WithContext demands a fresh shallow copy —
// but everything it points at is reused.
type pooledReq struct {
	url     url.URL
	body    reqBody
	raw     []byte // the attempt's body bytes, for GetBody copies
	header  http.Header
	ctVal   [1]string // backing array of the Content-Type header value
	getBody func() (io.ReadCloser, error)
}

var reqPool = sync.Pool{New: func() interface{} {
	pr := &pooledReq{header: make(http.Header, 1)}
	pr.header["Content-Type"] = pr.ctVal[:1]
	pr.getBody = func() (io.ReadCloser, error) {
		// A genuinely fresh reader per call: the transport asks for one
		// when it replays the request on another connection, and the
		// abandoned connection's write loop may still be draining the
		// primary reader.
		return io.NopCloser(bytes.NewReader(pr.raw)), nil
	}
	return pr
}}

// request arms the pooled state for one attempt and materializes the
// per-attempt http.Request.
func (pr *pooledReq) request(ctx context.Context, u *url.URL, contentType string, body []byte) *http.Request {
	pr.url = *u
	pr.raw = body
	pr.body.Reset(body)
	pr.body.done.Store(false)
	pr.ctVal[0] = contentType
	req := &http.Request{
		Method:        http.MethodPost,
		URL:           &pr.url,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        pr.header,
		Body:          &pr.body,
		GetBody:       pr.getBody,
		ContentLength: int64(len(body)),
	}
	return req.WithContext(ctx)
}

// recycle returns the pooled state for reuse — but only once the
// transport has closed the body, proving no write loop can still be
// reading it. Otherwise the state is abandoned to the GC (rare: an
// early response that outran the request write).
//
//wsu:owns pr
//wsu:allow poolcheck -- state whose body the transport may still hold is abandoned to the GC
func (pr *pooledReq) recycle() {
	if pr.body.done.Load() {
		pr.raw = nil
		reqPool.Put(pr)
	}
}

// PostXML posts an XML payload with retry of transient failures:
// transport errors and (by default) 5xx statuses other than 500 are
// retried with exponential backoff. HTTP 500 is NOT transient here — the
// SOAP 1.1 binding uses it for faults, which are deterministic evident
// failures that retrying the same release cannot fix.
//
// The response body is read through a pooled buffer and bounded by the
// policy's MaxResponseBytes; an oversized body fails with ErrTooLarge
// without further attempts.
func PostXML(ctx context.Context, client *http.Client, url, contentType string, body []byte, policy RetryPolicy) (Result, error) {
	if err := policy.Validate(); err != nil {
		return Result{}, err
	}
	if client == nil {
		client = http.DefaultClient
	}
	u, err := cachedURL(url)
	if err != nil {
		return Result{}, fmt.Errorf("httpx: building request: %w", err)
	}
	maxBytes := policy.EffectiveMaxResponseBytes()
	start := time.Now()
	var lastErr error
	for attempt := 1; attempt <= policy.Attempts; attempt++ {
		if attempt > 1 {
			select {
			case <-ctx.Done():
				return Result{}, fmt.Errorf("httpx: cancelled during backoff: %w", ctx.Err())
			case <-time.After(policy.BackoffFor(attempt)):
			}
		}
		// The pooled state is recycled (see pooledReq.recycle) only when
		// the transport has provably finished with the body; on error
		// paths it is abandoned to the GC outright.
		//wsu:allow poolcheck -- error paths abandon the pooled request to the GC (see above)
		pr := reqPool.Get().(*pooledReq)
		resp, err := client.Do(pr.request(ctx, u, contentType, body))
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				break // deadline spent; no point retrying
			}
			continue
		}
		//wsu:allow poolcheck -- ownership transfers to the caller via Result.BodyBuf
		data, err := ReadBoundedBuf(resp.Body, resp.ContentLength, maxBytes)
		resp.Body.Close()
		if err != nil {
			if errors.Is(err, ErrTooLarge) {
				return Result{}, fmt.Errorf("httpx: POST %s: %w", url, err)
			}
			lastErr = err
			continue
		}
		if policy.ShouldRetryStatus(resp.StatusCode) && attempt < policy.Attempts {
			lastErr = fmt.Errorf("httpx: transient HTTP %d from %s", resp.StatusCode, url)
			data.Release()
			pr.recycle()
			continue
		}
		pr.recycle()
		n := len(data.B)
		data.B = appendHeader(data.B, resp.Header)
		return Result{
			Status:   resp.StatusCode,
			Body:     data.B[:n:n],
			Header:   Header(data.B[n:]),
			Attempts: attempt,
			Latency:  time.Since(start),
			BodyBuf:  data,
		}, nil
	}
	return Result{}, fmt.Errorf("httpx: POST %s failed after retries: %w", url, lastErr)
}

// Instrumented wraps a RoundTripper and reports the latency and error of
// every exchange to the observe callback — the hook the monitoring
// subsystem (§4.3) uses to measure release execution times.
type Instrumented struct {
	// Base is the wrapped transport; nil means http.DefaultTransport.
	Base http.RoundTripper
	// Observe receives every exchange outcome. It must be safe for
	// concurrent use.
	Observe func(req *http.Request, status int, latency time.Duration, err error)
}

var _ http.RoundTripper = (*Instrumented)(nil)

// RoundTrip implements http.RoundTripper.
func (i *Instrumented) RoundTrip(req *http.Request) (*http.Response, error) {
	base := i.Base
	if base == nil {
		base = http.DefaultTransport
	}
	start := time.Now()
	resp, err := base.RoundTrip(req)
	if i.Observe != nil {
		status := 0
		if resp != nil {
			status = resp.StatusCode
		}
		i.Observe(req, status, time.Since(start), err)
	}
	return resp, err
}
