package core

import (
	"bytes"
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

// countingWriter is an http.ResponseWriter that keeps every Write.
type countingWriter struct {
	header http.Header
	writes int
	bytes.Buffer
}

func (c *countingWriter) Header() http.Header { return c.header }
func (c *countingWriter) WriteHeader(int)     {}
func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// TestOneWritePerResponse: both codecs hand net/http a response in a
// single Write up to soap.OneWriteMax, with and without a confidence
// header item — so net/http sends all of it before the handler returns
// — and the SOAP codec only past that bound writes head, body and tail
// as they lie rather than copying a large reply. The bytes are
// soap.EnvelopeRaw's with the same header items (the JSON body
// verbatim), and a response net/http would chunk declares its length.
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
				declared := w.header.Get("Content-Length")
				if len(want) > httpx.BufferBeforeChunking && declared != strconv.Itoa(len(want)) ||
					len(want) <= httpx.BufferBeforeChunking && declared != "" {
					t.Errorf("%s %d B, %d header items: Content-Length %q for a %d-byte response",
						v.name, size, len(headers), declared, len(want))
				}
			}
		}
	}
}
