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
//   - Response headers stay the bytes that arrived: the reader checks
//     every line and interprets the three that frame the body, and the
//     block rides behind the body in the reply's own pooled buffer, where
//     Result.Header (an httpx.Header) looks a field up on demand. No
//     header costs an allocation, however much consecutive replies on a
//     connection differ, and nothing is shared between calls.
//   - An exchange is split where waiting starts: Begin checks an idle
//     connection out and writes the request, End reads the response
//     under the retry policy. PostXML is the two back to back; a
//     fan-out begins every release's call before it ends any, so every
//     request is on the wire before anyone waits (see Begin for what is
//     left to End, and why).
//   - Context cancellation is deadline-on-conn plus poisoning, with no
//     goroutine of its own: conn.Poison marks the exchange's connection
//     and forces its deadline into the past, unblocking any in-flight
//     write or read. The dispatcher's per-demand context runs it from
//     its own cancel (connWatcher); any other cancellable context gets
//     a context.AfterFunc for the length of the exchange. A poisoned
//     connection is closed, and a pooled one is never poisoned.
//
// Retry, backoff and response-size semantics are httpx.Retry's: End
// hands that loop one attempt, the begun-then-whole exchange of
// pool.do, so both transports run the same loop by construction (a
// conformance suite runs against both). URLs the wire client
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
	bufpool "wsupgrade/internal/pool"
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
	// Timeout is the per-exchange deadline backstop applied when the
	// call context carries no deadline of its own. Zero means none: an
	// exchange is then bounded only by its context.
	Timeout time.Duration
	// Fallback carries every call whose URL is not plain http:// (in
	// practice https); nil means http.DefaultClient. PostXML delegates
	// on the scheme alone, so nothing configured here — a proxy, say —
	// affects http:// endpoints.
	Fallback *http.Client
}

// idleTimeout bounds how long an unused pooled connection survives
// before the janitor closes it — the wire counterpart of
// http.Transport.IdleConnTimeout, and what keeps connections to retired
// release endpoints from living for the client's lifetime.
const idleTimeout = 90 * time.Second

// Client is the lean dispatch transport. Construct with NewClient; it is
// safe for concurrent use. Close shuts down all pooled connections.
type Client struct {
	opts Options
	// maxIdle bounds each endpoint's idle-connection pool, and
	// idleAge is the janitor's age limit (negative: no janitor).
	// NewClient sets both from constants; tests lower them.
	maxIdle     int
	idleAge     time.Duration
	pools       sync.Map // endpoint URL string → *pool
	closed      atomic.Bool
	janitorOnce sync.Once
	janitorDone chan struct{}
}

// NewClient builds a wire client.
func NewClient(opts Options) *Client {
	if opts.Dial == nil {
		opts.Dial = defaultDial
	}
	if opts.Fallback == nil {
		opts.Fallback = http.DefaultClient
	}
	return &Client{
		opts:        opts,
		maxIdle:     httpx.DefaultMaxIdleConnsPerHost,
		idleAge:     idleTimeout,
		janitorDone: make(chan struct{}),
	}
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
// to retired release endpoints do not persist for the client's
// lifetime.
func (c *Client) startJanitor() {
	if c.idleAge < 0 {
		return
	}
	c.janitorOnce.Do(func() {
		interval := c.idleAge / 2
		if interval < time.Second {
			interval = c.idleAge // sub-2s timeouts (tests) sweep at their own pace
		}
		go func() {
			ticker := time.NewTicker(interval)
			defer ticker.Stop()
			for {
				select {
				case <-c.janitorDone:
					return
				case <-ticker.C:
					cutoff := time.Now().Add(-c.idleAge)
					c.pools.Range(func(_, v interface{}) bool {
						v.(*pool).reapIdle(cutoff)
						return true
					})
				}
			}
		}()
	})
}

// PostXML posts an XML payload under httpx.Retry's policy, as
// httpx.PostXML does; the conformance suite in this package runs both.
// Non-http:// URLs are delegated to the Fallback client. It is Begin
// followed by End: there is one exchange path.
//
// Result.BodyBuf carries ownership of the pooled response buffer to the
// caller — Result.Body and Result.Header both lie in it; see
// httpx.Result.
func (c *Client) PostXML(ctx context.Context, rawURL, contentType string, body []byte, policy httpx.RetryPolicy) (httpx.Result, error) {
	call := c.Begin(ctx, rawURL, contentType, body, policy)
	return call.End()
}

// Call is one release call between Begin and End. A begun call holds
// a checked-out connection that its context may poison, so it is an
// obligation: End must run exactly once, on any goroutine. A Call
// is a plain value so that a fan-out can keep its calls in pooled
// storage; copying one moves the obligation, it does not duplicate it.
// The zero Call holds nothing, and its End says so.
type Call struct {
	// fn, when set, is the whole call (see Deferred).
	fn func() (httpx.Result, error)
	// err is a failure known before any exchange: an invalid policy, a
	// closed client, an unusable URL. End reports it.
	err error

	p           *pool
	ctx         context.Context
	rawURL      string
	contentType string
	body        []byte
	policy      httpx.RetryPolicy
	// x is the first attempt's exchange with its request already
	// written; the zero value means End performs the first attempt whole.
	x inflight
}

// errNotInFlight reports an End with nothing to end: a second End on
// the same Call, or the zero Call.
var errNotInFlight = errors.New("wire: End on a call that is not in flight")

// Deferred wraps a whole call — anything that produces PostXML's result
// — as a Call whose End runs it. It is how a call that cannot be split
// into a write and a read travels the begin/end seam: the https
// fallback here, and fake transports in tests.
func Deferred(fn func() (httpx.Result, error)) Call { return Call{fn: fn} }

// Begin starts one call and returns it for End to finish. Everything
// that cannot wait on the peer happens here, on the caller's goroutine:
// an idle keep-alive connection is checked out, its deadline set, its
// cancellation hooked up and the request written, so a caller with
// several releases to invoke has every request on the wire before it
// waits for any reply.
//
// Whatever could block on the peer is left to End, which then performs
// the whole exchange: a body over largeBodyThreshold (one write of at
// most that much into the empty send buffer of an idle connection
// completes without the peer reading; a larger one may not), a pool
// with no idle connection (a dial waits for the peer's accept), and a
// non-http:// URL (the Fallback client). A release that stops reading
// or accepting therefore never holds up another release's request.
// Failures — the write's included — surface from End.
//
//wsu:owns return
func (c *Client) Begin(ctx context.Context, rawURL, contentType string, body []byte, policy httpx.RetryPolicy) Call {
	if err := policy.Validate(); err != nil {
		return Call{err: err}
	}
	if !strings.HasPrefix(rawURL, "http://") {
		fallback := c.opts.Fallback
		return Deferred(func() (httpx.Result, error) {
			return httpx.PostXML(ctx, fallback, rawURL, contentType, body, policy)
		})
	}
	if c.closed.Load() {
		return Call{err: ErrClosed}
	}
	p, err := c.pool(rawURL, contentType)
	if err != nil {
		return Call{err: fmt.Errorf("wire: building request: %w", err)}
	}
	k := Call{p: p, ctx: ctx, rawURL: rawURL, contentType: contentType, body: body, policy: policy}
	if len(body) <= largeBodyThreshold {
		if cn := p.getIdle(); cn != nil {
			k.x = p.begin(ctx, cn, false, contentType, body)
		}
	}
	return k
}

// End finishes the call: it reads the response to the request Begin
// wrote (or performs the whole first attempt when Begin left it) and
// runs httpx.Retry's policy from there, each attempt one pool.do — so a
// stale keep-alive is redialled inside its attempt and consumes none —
// returning the connection to its pool or closing it. A second End on
// the same Call reports an error and touches nothing.
//
//wsu:owns k
//wsu:noalloc
//wsu:allow poolcheck -- End is the release: every exchange it finishes pools or closes its connection (pool.finish)
func (k *Call) End() (httpx.Result, error) {
	call := *k
	*k = Call{}
	if call.fn != nil {
		return call.fn()
	}
	if call.p == nil {
		if call.err == nil {
			call.err = errNotInFlight
		}
		return httpx.Result{}, call.err
	}
	return httpx.Retry(call.ctx, call.policy, call.rawURL, func(maxBytes int64) (int, *bufpool.Buf, int, error) {
		x := call.x
		call.x = inflight{} // only the first attempt was begun
		//wsu:allow poolcheck -- an attempt hands its buffer to httpx.Retry, which passes it on in Result.BodyBuf
		return call.p.do(call.ctx, x, call.contentType, call.body, maxBytes)
	})
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
