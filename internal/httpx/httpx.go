// Package httpx is the HTTP transport substrate: a client with a tuned
// connection pool, retry of transient failures, and bounded response
// reads.
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
	"strconv"
	"strings"
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
		// A bytes.Reader body lets net/http set GetBody, so that it can
		// replay the request on a fresh connection.
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return Result{}, fmt.Errorf("httpx: building request: %w", err)
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := client.Do(req)
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
			continue
		}
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
