package core

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"wsupgrade/internal/httpx"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/protocol"
	"wsupgrade/internal/protocol/jsoncodec"
	"wsupgrade/internal/protocol/soapcodec"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/wire"
)

// padded returns a total-byte document: open, filler, close.
func padded(open, close string, total int) []byte {
	return []byte(open + strings.Repeat("k", total-len(open)-len(close)) + close)
}

// TestResponseContentLength drives both codecs through a real net/http
// round trip, with and without the published confidence, at delivered
// response sizes on both sides of httpx.BufferBeforeChunking (2 KiB):
// every response carries its exact Content-Length and no transfer
// coding — net/http counts one that fits its buffer, the codec declares
// one past it (responses of 2–4 KiB used to leave chunked) — and the
// bytes delivered are what the codec always rendered.
func TestResponseContentLength(t *testing.T) {
	type variant struct {
		name        string
		codec       protocol.Codec
		contentType string
		path        string
		request     []byte
		payload     func(total int) []byte // the release's reply payload, total bytes long
		wire        func(payload []byte) []byte
	}
	variants := []variant{{
		name: "soap", codec: soapcodec.Default, contentType: soap.ContentType, path: "/",
		request: soap.EnvelopeRaw([]byte("<addRequest><a>1</a><b>2</b></addRequest>")),
		payload: func(n int) []byte { return padded("<addResponse><pad>", "</pad></addResponse>", n) },
		wire:    func(p []byte) []byte { return soap.EnvelopeRaw(p) },
	}, {
		name: "json", codec: jsoncodec.Default, contentType: jsoncodec.ContentType, path: "/add",
		request: []byte(`{"a":1,"b":2}`),
		payload: func(n int) []byte { return padded(`{"pad":"`, `"}`, n) },
		wire:    func(p []byte) []byte { return p },
	}}
	// The sizes of the responses as delivered.
	sizes := []int{512, 2 << 10, 2<<10 + 1, 3 << 10, 4 << 10, 64 << 10}
	for _, v := range variants {
		for _, publish := range []bool{false, true} {
			name := v.name
			if publish {
				name += "-confidence"
			}
			t.Run(name, func(t *testing.T) {
				var reply atomic.Pointer[[]byte] // what both releases answer; set per size
				release := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					_, _ = io.Copy(io.Discard, r.Body)
					w.Header().Set("Content-Type", v.contentType)
					_, _ = w.Write(*reply.Load())
				}))
				defer release.Close()
				_, ts := startEngine(t, Config{
					Releases: []Endpoint{
						{Version: "1.0", URL: release.URL},
						{Version: "1.1", URL: release.URL},
					},
					InitialPhase:  PhaseObservation,
					Oracle:        oracle.Reference{Release: "1.0", Codec: v.codec},
					Codec:         v.codec,
					Inference:     testInference(),
					PublishHeader: publish,
				})
				demand := func(payload []byte) (*http.Response, []byte) {
					t.Helper()
					rendered := v.wire(payload)
					reply.Store(&rendered)
					resp, err := http.Post(ts.URL+v.path, v.contentType, bytes.NewReader(v.request))
					if err != nil {
						t.Fatal(err)
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("HTTP %d, read error %v: %.200s", resp.StatusCode, err, body)
					}
					return resp, body
				}

				// What the mediator adds to the release's rendering: the
				// envelope's frame, and the confidence header item (its
				// value is fixed-width) when it is published in SOAP.
				_, probe := demand(v.payload(100))
				added := len(probe) - 100
				for _, size := range sizes {
					payload := v.payload(size - added)
					resp, body := demand(payload)
					if len(body) != size {
						t.Fatalf("size %d: delivered %d bytes", size, len(body))
					}

					// The bytes are what the codec always rendered.
					if v.name == "json" || !publish {
						if !bytes.Equal(body, v.wire(payload)) {
							t.Fatalf("size %d: delivered bytes differ from the codec's rendering", size)
						}
					} else if p, err := soap.Decode(body); err != nil || !bytes.Equal(p.BodyXML, payload) ||
						!bytes.Contains(body[:len(body)-len(payload)], []byte("Confidence")) {
						t.Fatalf("size %d: delivered envelope does not carry the payload under a confidence header", size)
					}
					if publish && v.name == "json" && resp.Header.Get(ConfidenceHeader) == "" {
						t.Fatalf("size %d: no %s header", size, ConfidenceHeader)
					}
					if resp.ContentLength != int64(size) || len(resp.TransferEncoding) != 0 {
						t.Errorf("size %d: left with Content-Length %d, Transfer-Encoding %v; want the exact length and no coding",
							size, resp.ContentLength, resp.TransferEncoding)
					}
				}
			})
		}
	}
}

// countingWriter is an http.ResponseWriter that keeps every Write, and
// the slice its first Write was handed.
type countingWriter struct {
	header http.Header
	writes int
	first  []byte
	bytes.Buffer
}

func (c *countingWriter) Header() http.Header { return c.header }
func (c *countingWriter) WriteHeader(int)     {}
func (c *countingWriter) Write(p []byte) (int, error) {
	if c.writes == 0 {
		c.first = p
	}
	c.writes++
	return c.Buffer.Write(p)
}

// framing is one way a release may frame a reply payload.
type framing struct {
	name      string
	raw       []byte
	canonical bool // soap.EnvelopeRaw's envelope, sent as it arrived
}

// framingsOf are ways a release may frame one reply payload: the
// canonical envelope soap.EnvelopeRaw renders, which the mediator sends
// as it arrived, and envelopes in other forms, which it renders anew.
func framingsOf(payload []byte) []framing {
	const (
		decl = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"
		open = `<soap:Envelope xmlns:soap="` + soap.EnvelopeNS + `">`
		body = `<soap:Body>`
		tail = `</soap:Body></soap:Envelope>`
	)
	p := string(payload)
	return []framing{
		{"canonical", soap.EnvelopeRaw(payload), true},
		{"trailing-newline", []byte(decl + open + body + p + tail + "\n"), false},
		{"soapenv-prefix", []byte(decl + `<soapenv:Envelope xmlns:soapenv="` + soap.EnvelopeNS + `"><soapenv:Body>` +
			p + `</soapenv:Body></soapenv:Envelope>`), false},
		{"no-declaration", []byte(open + body + p + tail), false},
		{"release-header", []byte(decl + open + `<soap:Header><v>1.0</v></soap:Header>` + body + p + tail), false},
	}
}

// framedEngine is an engine over releases that answer every call with
// raw, in process (a wire.Deferred call: the transport's Result.Body is
// raw itself), so a test can tell raw's own array on the response.
func framedEngine(t *testing.T, raw []byte, cfg Config) *Engine {
	t.Helper()
	cfg.Releases = []Endpoint{{Version: "1.0", URL: "http://old.invalid"}, {Version: "1.1", URL: "http://new.invalid"}}
	cfg.Begin = func(context.Context, string, string, []byte, httpx.RetryPolicy) wire.Call {
		return wire.Deferred(func() (httpx.Result, error) {
			return httpx.Result{Status: http.StatusOK, Body: raw}, nil
		})
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := e.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	return e
}

// serveOnce sends one SOAP demand for operation straight into e's
// handler and returns what the handler wrote.
func serveOnce(t *testing.T, e *Engine, operation string) *countingWriter {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/",
		bytes.NewReader(soap.EnvelopeRaw([]byte("<"+operation+"Request><a>1</a><b>2</b></"+operation+"Request>"))))
	req.Header.Set("Content-Type", soap.ContentType)
	w := &countingWriter{header: http.Header{}}
	e.ServeHTTP(w, req)
	return w
}

// A release's reply that already is the canonical envelope around its
// payload leaves as it arrived: the response's one Write is handed the
// transport's own bytes, not a rendered copy. Every other reply is
// rendered: one framed in another form, one under a published
// confidence header item, and an "<op>Conf" variant's rewritten body.
func TestFramedReplyLeavesAsItArrived(t *testing.T) {
	payload := padded("<addResponse><pad>", "</pad></addResponse>", 4<<10)
	sameArray := func(w *countingWriter, raw []byte) bool {
		return len(w.first) == len(raw) && &w.first[0] == &raw[0]
	}
	for _, f := range framingsOf(payload) {
		e := framedEngine(t, f.raw, Config{InitialPhase: PhaseOldOnly})
		w := serveOnce(t, e, "add")
		if !bytes.Equal(w.Bytes(), soap.EnvelopeRaw(payload)) {
			t.Fatalf("%s: delivered %.120q, want the canonical envelope", f.name, w.Bytes())
		}
		if got := sameArray(w, f.raw); got != f.canonical || w.writes != 1 {
			t.Errorf("%s: %d Writes, the first handed the reply's own bytes: %v, want %v",
				f.name, w.writes, got, f.canonical)
		}
	}

	canonical := soap.EnvelopeRaw(payload)
	published := framedEngine(t, canonical, Config{InitialPhase: PhaseObservation,
		Inference: testInference(), PublishHeader: true})
	w := serveOnce(t, published, "add")
	if p, err := soap.Decode(w.Bytes()); err != nil || !bytes.Equal(p.BodyXML, payload) ||
		!bytes.Contains(p.HeaderXML, []byte("Confidence")) {
		t.Fatalf("published: delivered %.200q, want the payload under a confidence header", w.Bytes())
	}
	if sameArray(w, canonical) {
		t.Error("published: the reply left as it arrived, without its confidence header")
	}

	variant := framedEngine(t, canonical, Config{InitialPhase: PhaseObservation,
		Inference: testInference(), EnableConfOps: true})
	w = serveOnce(t, variant, "addConf")
	if !bytes.Contains(w.Bytes(), []byte("<addConfResponse>")) || !bytes.Contains(w.Bytes(), []byte("<addConf>")) {
		t.Fatalf("variant: delivered %.200q, want the renamed body with its confidence element", w.Bytes())
	}
	if sameArray(w, canonical) {
		t.Error("variant: the reply left as it arrived, not rewritten")
	}
}

// TestOneWritePerResponse: both codecs hand net/http a response in a
// single Write up to soap.OneWriteMax, with and without a confidence
// header item — so net/http sends all of it before the handler returns
// — and the SOAP codec only past that bound writes head, body and tail
// as they lie rather than copying a large reply. The bytes are
// soap.EnvelopeRaw's with the same header items (the JSON body
// verbatim), and a response net/http would chunk declares its length.
// Through the engine, a SOAP reply the release framed canonically
// leaves in one Write at every size, as it arrived; one framed in
// another form is rendered, under the same rule as WriteBody.
func TestOneWritePerResponse(t *testing.T) {
	confidence := soapcodec.Codec{}.AppendConfidenceHeader(nil, "add", 0.97)
	// observation-large's 64 KiB reply leaves in one Write; a 256 KiB
	// one, in the class where the copy was measured to lose, does not.
	sizes := []struct {
		n    int
		once bool
	}{{300, true}, {3 << 10, true}, {64 << 10, true}, {soap.OneWriteMax + 1, false}, {256 << 10, false}, {1<<20 + 1, false}}
	for _, v := range []struct {
		name    string
		codec   protocol.Codec
		payload func(total int) []byte
		wire    func(payload []byte, headers ...protocol.HeaderItem) []byte
		parts   int // Writes of a response past soap.OneWriteMax
	}{
		{"soap", soapcodec.Default,
			func(n int) []byte { return padded("<addResponse><pad>", "</pad></addResponse>", n) },
			soap.EnvelopeRaw, 3},
		{"json", jsoncodec.Default,
			func(n int) []byte { return padded(`{"pad":"`, `"}`, n) },
			func(p []byte, _ ...protocol.HeaderItem) []byte { return p }, 1},
	} {
		for _, headers := range [][]protocol.HeaderItem{nil, {confidence}} {
			for _, s := range sizes {
				size := s.n
				body := v.payload(size)
				w := &countingWriter{header: http.Header{}}
				n, err := v.codec.WriteBody(w, body, headers...)
				want := v.wire(body, headers...)
				if err != nil || n != len(want) || !bytes.Equal(w.Bytes(), want) {
					t.Fatalf("%s %d B, %d header items: wrote %d bytes (err %v), want the %d-byte rendering",
						v.name, size, len(headers), n, err, len(want))
				}
				writes := 1
				if !s.once {
					writes = v.parts
				}
				if w.writes != writes {
					t.Errorf("%s %d B, %d header items: %d Writes, want %d", v.name, size, len(headers), w.writes, writes)
				}
				checkDeclared(t, w, len(want), v.name, size, len(headers))
			}
		}
	}
	for _, s := range sizes {
		body := padded("<addResponse><pad>", "</pad></addResponse>", s.n)
		want := soap.EnvelopeRaw(body)
		for _, f := range framingsOf(body) {
			w := serveOnce(t, framedEngine(t, f.raw, Config{InitialPhase: PhaseOldOnly}), "add")
			if !bytes.Equal(w.Bytes(), want) {
				t.Fatalf("%s %d B: delivered %d bytes, want the %d-byte rendering", f.name, s.n, w.Len(), len(want))
			}
			writes := 1
			if !s.once && !f.canonical {
				writes = 3
			}
			if w.writes != writes {
				t.Errorf("%s %d B: %d Writes, want %d", f.name, s.n, w.writes, writes)
			}
			checkDeclared(t, w, len(want), f.name, s.n, 0)
		}
	}
}

// checkDeclared fails t unless w's Content-Length declares an n-byte
// response net/http would chunk, and only such a one.
func checkDeclared(t *testing.T, w *countingWriter, n int, name string, size, items int) {
	t.Helper()
	declared := w.header.Get("Content-Length")
	if n > httpx.BufferBeforeChunking && declared != strconv.Itoa(n) ||
		n <= httpx.BufferBeforeChunking && declared != "" {
		t.Errorf("%s %d B, %d header items: Content-Length %q for a %d-byte response", name, size, items, declared, n)
	}
}
