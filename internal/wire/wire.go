// Package wire is a lean HTTP/1.1 client purpose-built for release
// dispatch — the transport under the mediator's fan-out hot path.
//
// The paper's middleware sits on every consumer request and multiplies
// per-call client overhead by the number of deployed releases (§4.2), so
// the generic net/http client machinery (request construction, response
// and header structs, cancellation plumbing) was the dominant per-call
// cost once the engine's own work was pooled away. This package replaces
// it for the traffic shape the mediator actually has: POSTs of small XML
// envelopes to a small, fixed set of plain-HTTP endpoints, with bounded
// response reads.
//
//   - Per-endpoint persistent connection pools: each connection keeps its
//     bufio reader, write scratch and header scratch across calls.
//   - Request heads are written from a precomputed per-endpoint byte
//     prefix — method, target, Host and Content-Type never change per
//     call; only Content-Length and the body do.
//   - Response headers are parsed into an http.Header that is cached per
//     connection and reused verbatim while the raw header block repeats
//     (release responses are near-identical call to call), so the steady
//     state allocates nothing for headers. The cached Header is shared
//     across calls on the same connection: callers must treat
//     Result.Header as read-only.
//   - Context cancellation is implemented as deadline-on-conn plus
//     poisoning: every exchange arms a per-connection watcher that, when
//     the context fires, marks the connection poisoned and forces its
//     deadline into the past, unblocking any in-flight read. A poisoned
//     connection is closed, never pooled.
//
// Retry, backoff and response-size semantics are httpx.PostXML's,
// enforced by sharing the httpx.RetryPolicy implementation and a
// conformance suite run against both transports. URLs the wire client
// does not speak natively (anything but plain http://) are delegated to
// the Fallback net/http client, which is therefore the configuration
// seam for TLS certificates and credentials. The choice is made on the
// URL scheme alone: an http:// endpoint is always dialled directly, so
// a forward proxy configured on the Fallback applies to https only.
package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wsupgrade/internal/httpx"
)

// ErrClosed reports a call on a closed client.
var ErrClosed = errors.New("wire: client closed")

// DialFunc establishes the transport connection to addr ("host:port").
// Tests and in-process benchmarks substitute in-memory pipes.
type DialFunc = func(ctx context.Context, network, addr string) (net.Conn, error)

// Options parameterizes a Client.
type Options struct {
	// Dial overrides connection establishment; nil means a TCP dial with
	// a 5 s connect timeout.
	Dial DialFunc
	// MaxIdlePerHost bounds each endpoint's idle-connection pool
	// (default httpx.DefaultMaxIdleConnsPerHost).
	MaxIdlePerHost int
	// Timeout is the per-exchange deadline backstop applied when the
	// call context carries no deadline of its own. Zero means none: an
	// exchange is then bounded only by its context.
	Timeout time.Duration
	// IdleTimeout bounds how long an unused pooled connection (and its
	// watcher goroutine) survives before the janitor closes it — the
	// wire counterpart of http.Transport.IdleConnTimeout, and what keeps
	// connections to retired release endpoints from living for the
	// client's lifetime. Default 90 s; negative disables reaping.
	IdleTimeout time.Duration
	// Fallback carries every call whose URL is not plain http:// (in
	// practice https); nil means http.DefaultClient. PostXML delegates
	// on the scheme alone, so nothing configured here — a proxy, say —
	// affects http:// endpoints.
	Fallback *http.Client
}

// Client is the lean dispatch transport. Construct with NewClient; it is
// safe for concurrent use. Close shuts down all pooled connections.
type Client struct {
	opts        Options
	pools       sync.Map // endpoint URL string → *pool
	closed      atomic.Bool
	janitorOnce sync.Once
	janitorDone chan struct{}
}

// NewClient builds a wire client.
func NewClient(opts Options) *Client {
	if opts.MaxIdlePerHost <= 0 {
		opts.MaxIdlePerHost = httpx.DefaultMaxIdleConnsPerHost
	}
	if opts.Dial == nil {
		opts.Dial = defaultDial
	}
	if opts.IdleTimeout == 0 {
		opts.IdleTimeout = 90 * time.Second
	}
	if opts.Fallback == nil {
		opts.Fallback = http.DefaultClient
	}
	return &Client{opts: opts, janitorDone: make(chan struct{})}
}

// Close closes every pooled connection. In-flight exchanges finish; the
// connections they hold are closed on return instead of pooled.
func (c *Client) Close() error {
	if c.closed.CompareAndSwap(false, true) {
		close(c.janitorDone)
	}
	c.pools.Range(func(_, v interface{}) bool {
		v.(*pool).close()
		return true
	})
	return nil
}

// startJanitor launches (once, lazily on first pool creation) the
// goroutine that ages idle connections out of every pool, so sockets
// and watcher goroutines to retired release endpoints do not persist
// for the client's lifetime.
func (c *Client) startJanitor() {
	if c.opts.IdleTimeout < 0 {
		return
	}
	c.janitorOnce.Do(func() {
		interval := c.opts.IdleTimeout / 2
		if interval < time.Second {
			interval = c.opts.IdleTimeout // sub-2s timeouts (tests) sweep at their own pace
		}
		go func() {
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-c.janitorDone:
					return
				case <-ticker.C:
					cutoff := time.Now().Add(-c.opts.IdleTimeout)
					c.pools.Range(func(_, v interface{}) bool {
						v.(*pool).reapIdle(cutoff)
						return true
					})
				}
			}
		}()
	})
}

// PostXML posts an XML payload with httpx.PostXML's exact retry,
// backoff and response-size semantics (see that function); the
// conformance suite in this package asserts the equivalence. Non-http://
// URLs are delegated to the Fallback client.
//
// Result.Header may be shared with subsequent results from the same
// endpoint and must be treated as read-only.
//
// Result.BodyBuf carries ownership of the pooled response-body buffer
// to the caller; see httpx.Result.
func (c *Client) PostXML(ctx context.Context, rawURL, contentType string, body []byte, policy httpx.RetryPolicy) (httpx.Result, error) {
	if err := policy.Validate(); err != nil {
		return httpx.Result{}, err
	}
	if !strings.HasPrefix(rawURL, "http://") {
		return httpx.PostXML(ctx, c.opts.Fallback, rawURL, contentType, body, policy)
	}
	if c.closed.Load() {
		return httpx.Result{}, ErrClosed
	}
	p, err := c.pool(rawURL, contentType)
	if err != nil {
		return httpx.Result{}, fmt.Errorf("wire: building request: %w", err)
	}
	maxBytes := policy.EffectiveMaxResponseBytes()
	start := time.Now()
	var lastErr error
	for attempt := 1; attempt <= policy.Attempts; attempt++ {
		if attempt > 1 {
			select {
			case <-ctx.Done():
				return httpx.Result{}, fmt.Errorf("wire: cancelled during backoff: %w", ctx.Err())
			case <-time.After(policy.BackoffFor(attempt)):
			}
		}
		//wsu:allow poolcheck -- a non-nil error carries no body; ownership otherwise transfers via Result.BodyBuf
		status, data, hdr, err := p.do(ctx, contentType, body, maxBytes)
		if err != nil {
			if errors.Is(err, httpx.ErrTooLarge) {
				// An oversized response is not transient; terminal, as in
				// httpx.PostXML.
				return httpx.Result{}, fmt.Errorf("wire: POST %s: %w", rawURL, err)
			}
			lastErr = err
			if ctx.Err() != nil {
				break // deadline spent; no point retrying
			}
			continue
		}
		if policy.ShouldRetryStatus(status) && attempt < policy.Attempts {
			lastErr = fmt.Errorf("wire: transient HTTP %d from %s", status, rawURL)
			data.Release()
			continue
		}
		return httpx.Result{
			Status:   status,
			Body:     data.B,
			Header:   hdr,
			Attempts: attempt,
			Latency:  time.Since(start),
			BodyBuf:  data,
		}, nil
	}
	return httpx.Result{}, fmt.Errorf("wire: POST %s failed after retries: %w", rawURL, lastErr)
}

// pool returns (building on first use) the endpoint's connection pool.
func (c *Client) pool(rawURL, contentType string) (*pool, error) {
	if v, ok := c.pools.Load(rawURL); ok {
		return v.(*pool), nil
	}
	u, err := url.Parse(rawURL)
	if err != nil {
		return nil, err
	}
	if u.Host == "" {
		return nil, fmt.Errorf("missing host in %q", rawURL)
	}
	p := newPool(c, u, contentType)
	if v, loaded := c.pools.LoadOrStore(rawURL, p); loaded {
		return v.(*pool), nil
	}
	if c.closed.Load() {
		// Raced Close; the pool must not outlive the client.
		p.close()
		return nil, ErrClosed
	}
	c.startJanitor()
	return p, nil
}
