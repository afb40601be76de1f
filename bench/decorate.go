package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"time"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/protocol"
	"wsupgrade/internal/xrand"
)

// The decorators below sit at the mediator's public seams — http.Handler,
// protocol.Codec, oracle.Oracle, adjudicate.Adjudicator and
// core.Config.Dial — and record a span around each call through them.
// Only the traced deployment is built with them; the deployment that
// produces the end-to-end metrics is the plain configuration.

// tracedHandler times the fleet's whole handler: everything the
// repository's own code does for a demand.
type tracedHandler struct {
	next http.Handler
	rec  *recorder
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	span := h.rec.begin(spanFleetHandler, noLane, 0)
	h.next.ServeHTTP(w, r)
	h.rec.end(span)
}

// tracedCodec records the four codec calls on the demand path and passes
// the rest through.
type tracedCodec struct {
	protocol.Codec
	rec *recorder
}

func (c tracedCodec) DecodeRequest(path string, body []byte) (protocol.Request, error) {
	span := c.rec.begin(spanDecodeRequest, noLane, len(body))
	req, err := c.Codec.DecodeRequest(path, body)
	c.rec.end(span)
	return req, err
}

func (c tracedCodec) DecodeReply(status int, body []byte) ([]byte, bool, error) {
	span := c.rec.begin(spanDecodeReply, noLane, len(body))
	payload, aliases, err := c.Codec.DecodeReply(status, body)
	c.rec.end(span)
	return payload, aliases, err
}

func (c tracedCodec) Equal(a, b []byte) bool {
	span := c.rec.begin(spanEqual, noLane, len(a)+len(b))
	eq := c.Codec.Equal(a, b)
	c.rec.end(span)
	return eq
}

func (c tracedCodec) WriteBody(w io.Writer, body []byte, headers ...protocol.HeaderItem) (int, error) {
	span := c.rec.begin(spanWriteBody, noLane, len(body))
	n, err := c.Codec.WriteBody(w, body, headers...)
	c.rec.end(span)
	return n, err
}

// tracedConfCodec is tracedCodec over a codec with the §6.2 confidence
// extension, which the engine discovers by type assertion.
type tracedConfCodec struct {
	tracedCodec
	protocol.ConfOps
}

func traceCodec(inner protocol.Codec, rec *recorder) protocol.Codec {
	tc := tracedCodec{Codec: inner, rec: rec}
	if ops, ok := inner.(protocol.ConfOps); ok {
		return tracedConfCodec{tracedCodec: tc, ConfOps: ops}
	}
	return tc
}

type tracedOracle struct {
	oracle.Oracle
	rec *recorder
}

func (o tracedOracle) JudgeInto(dst []bool, operation string, replies []adjudicate.Reply) []bool {
	span := o.rec.begin(spanOracleJudge, noLane, 0)
	failed := o.Oracle.JudgeInto(dst, operation, replies)
	o.rec.end(span)
	return failed
}

type tracedAdjudicator struct {
	adjudicate.Adjudicator
	rec *recorder
}

func (a tracedAdjudicator) Adjudicate(replies []adjudicate.Reply, rng *xrand.Rand) (adjudicate.Reply, error) {
	span := a.rec.begin(spanAdjudicate, noLane, 0)
	winner, err := a.Adjudicator.Adjudicate(replies, rng)
	a.rec.end(span)
	return winner, err
}

// tracedDialer is core.Config.Dial around the real TCP dial: it counts
// dials and wraps each connection so its traffic becomes wire.call spans.
type tracedDialer struct {
	rec   *recorder
	lanes map[string]int // release listener address → lane
}

func (d *tracedDialer) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	nd := net.Dialer{Timeout: 5 * time.Second, KeepAlive: 30 * time.Second}
	nc, err := nd.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	lane, ok := d.lanes[addr]
	if !ok {
		lane = noLane
	}
	d.rec.dialed()
	return &tracedConn{Conn: nc, rec: d.rec, lane: lane}, nil
}

type tracedConn struct {
	net.Conn
	rec  *recorder
	lane int
	// demand and span are the recorder's: the demand whose call this
	// connection last carried, and that call's span.
	demand int64
	span   int
}

func (c *tracedConn) Write(p []byte) (int, error) {
	c.rec.connWrite(c, len(p))
	return c.Conn.Write(p)
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.rec.connRead(c, n)
	return n, err
}
