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

// RetryPolicy controls a release exchange's tolerance of transient
// failures and the size bound on response bodies (see Retry).
type RetryPolicy struct {
	// Attempts is the total number of tries (≥ 1).
	Attempts int
	// Backoff is the delay before the second attempt; it doubles for
	// each further attempt.
	Backoff time.Duration
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

// transientStatus reports whether an HTTP status is transient: a 5xx
// other than 500, which the SOAP 1.1 binding uses for faults.
func transientStatus(code int) bool {
	return code >= 500 && code != http.StatusInternalServerError
}

// backoffFor returns the delay before the given attempt (≥ 2): Backoff
// for the second attempt, doubling for each one after.
func (p RetryPolicy) backoffFor(attempt int) time.Duration {
	return time.Duration(float64(p.Backoff) * math.Pow(2, float64(attempt-2)))
}

// maxResponseBytes resolves the response cap, applying the default when
// MaxResponseBytes is zero.
func (p RetryPolicy) maxResponseBytes() int64 {
	if p.MaxResponseBytes == 0 {
		return DefaultMaxResponseBytes
	}
	return p.MaxResponseBytes
}

// Result is the outcome of a release exchange (see Retry). It is
// returned by value: the exchange runs on the dispatch hot path, and the
// struct is small enough that a heap allocation per call was measurable.
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

// appendHeader renders hdr behind b in Header's form: what PostXML's
// attempt does once per response, so both transports hand their callers
// the same type.
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

// Attempt is one try of an exchange as a transport performs it: the
// response status and a pooled buffer holding the body in its first
// bodyLen bytes and the header block, in Header's form, behind it. The
// buffer's ownership goes to the caller; it is nil exactly when err is
// not. A body past maxBytes fails with ErrTooLarge.
type Attempt func(maxBytes int64) (status int, data *pool.Buf, bodyLen int, err error)

// Retry runs one release exchange under policy — the retry loop both
// release transports share, PostXML's net/http attempt and the wire
// client's alike. After validating the policy it makes up to
// policy.Attempts attempts, waiting Backoff before the second and
// doubling the wait before each one after; a cancelled ctx ends a wait
// at once. An ErrTooLarge response is terminal (an oversized response
// is not transient); another attempt error is retried until ctx is
// spent; a transient status (a 5xx other than 500, which the SOAP 1.1
// binding uses for deterministic faults) is retried while attempts
// remain, and the last attempt's response is returned whatever its
// status.
//
// attempt is only called, never kept, so a closure passed here stays
// on its caller's stack. Ownership of the returned Result.BodyBuf goes
// to the caller.
//
//wsu:noalloc
func Retry(ctx context.Context, policy RetryPolicy, url string, attempt Attempt) (Result, error) {
	if err := policy.Validate(); err != nil {
		return Result{}, err
	}
	maxBytes := policy.maxResponseBytes()
	var lastErr error
	for n := 1; n <= policy.Attempts; n++ {
		if n > 1 {
			select {
			case <-ctx.Done():
				//wsu:allow noalloc -- error path: the exchange is over
				return Result{}, fmt.Errorf("httpx: cancelled during backoff: %w", ctx.Err())
			case <-time.After(policy.backoffFor(n)):
			}
		}
		status, data, bodyLen, err := attempt(maxBytes)
		if err != nil {
			if errors.Is(err, ErrTooLarge) {
				//wsu:allow noalloc -- error path: the exchange is over
				return Result{}, fmt.Errorf("httpx: POST %s: %w", url, err)
			}
			lastErr = err
			if ctx.Err() != nil {
				break // deadline spent; no point retrying
			}
			continue
		}
		if transientStatus(status) && n < policy.Attempts {
			//wsu:allow noalloc -- retry path: a transient failure is being tolerated
			lastErr = fmt.Errorf("httpx: transient HTTP %d from %s", status, url)
			data.Release()
			continue
		}
		return Result{
			Status:   status,
			Body:     data.B[:bodyLen:bodyLen],
			Header:   Header(data.B[bodyLen:]),
			Attempts: n,
			BodyBuf:  data,
		}, nil
	}
	//wsu:allow noalloc -- error path: the exchange is over
	return Result{}, fmt.Errorf("httpx: POST %s failed after retries: %w", url, lastErr)
}

// PostXML posts an XML payload over net/http under Retry's policy. It
// is the wire client's fallback for non-http:// endpoints and the
// component client of composite services.
func PostXML(ctx context.Context, client *http.Client, url, contentType string, body []byte, policy RetryPolicy) (Result, error) {
	if client == nil {
		client = http.DefaultClient
	}
	return Retry(ctx, policy, url, func(maxBytes int64) (int, *pool.Buf, int, error) {
		// A bytes.Reader body lets net/http set GetBody, so that it can
		// replay the request on a fresh connection.
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return 0, nil, 0, fmt.Errorf("httpx: building request: %w", err)
		}
		req.Header.Set("Content-Type", contentType)
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil, 0, err
		}
		//wsu:allow poolcheck -- ownership leaves with the attempt's result (see the return below)
		data, err := ReadBoundedBuf(resp.Body, resp.ContentLength, maxBytes)
		resp.Body.Close()
		if err != nil {
			return 0, nil, 0, err
		}
		n := len(data.B)
		data.B = appendHeader(data.B, resp.Header)
		//wsu:allow poolcheck -- an attempt hands its buffer to Retry, which passes it on in Result.BodyBuf
		return resp.StatusCode, data, n, nil
	})
}
