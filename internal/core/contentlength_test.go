package core

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"wsupgrade/internal/httpx"
	"wsupgrade/internal/monitor"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/protocol"
	"wsupgrade/internal/protocol/jsoncodec"
	"wsupgrade/internal/protocol/soapcodec"
	"wsupgrade/internal/soap"
)

// TestResponseContentLength drives both codecs through a real net/http
// round trip at response sizes on both sides of httpx.InlineResponse,
// with and without the published confidence: a response past the
// boundary carries its exact Content-Length and no transfer coding (it
// used to leave as three chunks), one under it is framed by net/http as
// before, and the bytes delivered are the same either way.
func TestResponseContentLength(t *testing.T) {
	// The empty SOAP envelope's size places the boundary cases exactly.
	frame := len(soap.EnvelopeRaw(nil))
	pad := func(open, close string, total int) []byte {
		return []byte(open + strings.Repeat("k", total-len(open)-len(close)) + close)
	}
	type variant struct {
		name        string
		codec       protocol.Codec
		contentType string
		path        string
		request     []byte
		payload     func(total int) []byte // the release's reply payload, total bytes long
		wire        func(payload []byte) []byte
		sizes       []int
	}
	variants := []variant{{
		name: "soap", codec: soapcodec.Default, contentType: soap.ContentType, path: "/",
		request: soap.EnvelopeRaw([]byte("<addRequest><a>1</a><b>2</b></addRequest>")),
		payload: func(n int) []byte { return pad("<addResponse><pad>", "</pad></addResponse>", n) },
		wire:    func(p []byte) []byte { return soap.EnvelopeRaw(p) },
		sizes:   []int{300, httpx.InlineResponse - frame, httpx.InlineResponse - frame + 1, 64 << 10},
	}, {
		name: "json", codec: jsoncodec.Default, contentType: jsoncodec.ContentType, path: "/add",
		request: []byte(`{"a":1,"b":2}`),
		payload: func(n int) []byte { return pad(`{"pad":"`, `"}`, n) },
		wire:    func(p []byte) []byte { return p },
		sizes:   []int{300, httpx.InlineResponse, httpx.InlineResponse + 1, 64 << 10},
	}}
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
					Monitor:       monitor.New(),
					Inference:     testInference(),
					PublishHeader: publish,
				})
				for _, size := range v.sizes {
					payload := v.payload(size)
					rendered := v.wire(payload)
					reply.Store(&rendered)
					resp, err := http.Post(ts.URL+v.path, v.contentType, bytes.NewReader(v.request))
					if err != nil {
						t.Fatal(err)
					}
					body, err := io.ReadAll(resp.Body)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("size %d: HTTP %d, read error %v: %.200s", size, resp.StatusCode, err, body)
					}

					// The bytes are what the codec always rendered.
					if v.name == "json" || !publish {
						if !bytes.Equal(body, rendered) {
							t.Fatalf("size %d: delivered %d bytes differ from the %d-byte rendering", size, len(body), len(rendered))
						}
					} else if p, err := soap.Decode(body); err != nil || !bytes.Equal(p.BodyXML, payload) ||
						!bytes.Contains(body[:len(body)-len(payload)], []byte("Confidence")) {
						t.Fatalf("size %d: delivered envelope does not carry the payload under a confidence header", size)
					}
					if publish && v.name == "json" && resp.Header.Get(ConfidenceHeader) == "" {
						t.Fatalf("size %d: no %s header", size, ConfidenceHeader)
					}

					// net/http frames a single small Write itself (with
					// a length while it fits its 2 KiB buffer); past the
					// boundary the codec declares the length.
					switch {
					case len(body) > httpx.InlineResponse:
						if resp.ContentLength != int64(len(body)) || len(resp.TransferEncoding) != 0 {
							t.Errorf("size %d: %d bytes left with Content-Length %d, Transfer-Encoding %v; want the exact length and no coding",
								size, len(body), resp.ContentLength, resp.TransferEncoding)
						}
					case len(body) <= 2<<10:
						if resp.ContentLength != int64(len(body)) {
							t.Errorf("size %d: %d bytes left with Content-Length %d", size, len(body), resp.ContentLength)
						}
					}
				}
			})
		}
	}
}
