package main

import (
	"bytes"
	"net"
	"net/http"
	"time"
)

// consumer is one closed-loop client: the paper's consumer is a
// composite service that blocks on each component call, so the next
// demand is sent only when the previous reply is in. It keeps one
// keep-alive connection per target, reads every reply through a bounded
// buffer and verifies it against the fixtures.
type consumer struct {
	fx     *fixtures
	client *http.Client
	header http.Header
	buf    []byte
	first  int       // where in the request table this consumer starts a block
	rec    *recorder // set while this consumer drives the traced phase
	// sent counts every demand this consumer sent, direct and mediated,
	// warm-up included: the stubs' and the monitor's counts are checked
	// against them.
	sent [2]int64
}

func newConsumer(fx *fixtures, first int) *consumer {
	tr := &http.Transport{
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &consumer{
		fx:     fx,
		client: &http.Client{Transport: tr, Timeout: 10 * time.Second},
		header: http.Header{"Content-Type": {fx.contentType}},
		buf:    make([]byte, fx.maxReply+1),
		first:  first,
	}
}

func (c *consumer) close() { c.client.CloseIdleConnections() }

// verdict classifies one demand's reply.
type verdict uint8

const (
	delivered      verdict = iota // the expected payload, byte for byte
	wrongDelivered                // the new release's wrong payload reached the consumer
	failed                        // anything else: fault, timeout, transport, non-200, other bytes
)

// target is where a block's demands go and how its replies are checked.
type target struct {
	url string
	// mediated replies are checked on the payload the mediator must
	// preserve; direct replies are the stub's own bytes.
	mediated bool
	soap     bool
	// wantConfidence requires the §6.2 confidence header in the reply.
	wantConfidence bool
}

// demand sends request i of the table (the table wraps around) and
// returns the latency — request built to reply fully read — and what
// came back. A mediated demand of the traced phase is the recorder's
// current demand while it is in flight.
func (c *consumer) demand(t *target, i int) (time.Duration, verdict) {
	d := &c.fx.demands[i%len(c.fx.demands)]
	var rec *recorder
	if t.mediated {
		c.sent[1]++
		rec = c.rec
	} else {
		c.sent[0]++
	}
	rec.beginDemand()
	start := time.Now()
	n, status, err := c.post(t.url, d.request)
	lat := time.Since(start)
	rec.endDemand()
	if err != nil || status != http.StatusOK {
		return lat, failed
	}
	return lat, t.check(d, c.buf[:n])
}

func (c *consumer) post(url string, body []byte) (n, status int, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header = c.header
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	n, err = readFull(resp.Body, c.buf)
	_ = resp.Body.Close() // read to EOF above; nothing left to lose
	return n, resp.StatusCode, err
}

var (
	confidenceMark = []byte("conf:Confidence")
	bodyOpenMark   = []byte(bodyOpen)
	envelopeEnd    = []byte(envelopeClose)
)

func (t *target) check(d *demand, got []byte) verdict {
	if !t.mediated {
		if bytes.Equal(got, d.reply) {
			return delivered
		}
		return failed
	}
	payload := got
	if t.soap {
		// The mediator re-envelopes, and may add a header block: the
		// contract is the Body's content.
		i := bytes.Index(got, bodyOpenMark)
		if i < 0 || !bytes.HasSuffix(got, envelopeEnd) {
			return failed
		}
		if t.wantConfidence && !bytes.Contains(got[:i], confidenceMark) {
			return failed
		}
		payload = got[i+len(bodyOpen) : len(got)-len(envelopeClose)]
	}
	switch {
	case bytes.Equal(payload, d.payload):
		return delivered
	case d.wrongPayload != nil && bytes.Equal(payload, d.wrongPayload):
		return wrongDelivered
	default:
		return failed
	}
}
