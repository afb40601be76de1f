package dispatch

import (
	"context"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"wsupgrade/internal/adjudicate"
	"wsupgrade/internal/httpx"
	"wsupgrade/internal/protocol"
	"wsupgrade/internal/protocol/soapcodec"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/wire"
)

// The twin rule (fanout.classify): a reply whose status and bytes repeat
// a valid sibling's already in is not decoded, its Body is the sibling's
// payload, and a twin delivered to the consumer is moved into its own
// buffer first.

// countingCodec is the SOAP codec counting its reply decodes.
type countingCodec struct {
	protocol.Codec
	decodes atomic.Int64
}

func (c *countingCodec) DecodeReply(status int, body []byte) ([]byte, bool, error) {
	c.decodes.Add(1)
	return c.Codec.DecodeReply(status, body)
}

// sameSlice reports whether a and b are one non-empty slice.
func sameSlice(a, b []byte) bool {
	return len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
}

// within reports whether sub, not empty, lies in buf's backing array.
func within(buf, sub []byte) bool {
	buf = buf[:cap(buf)]
	for k := 0; k+len(sub) <= len(buf); k++ {
		if &buf[k] == &sub[0] {
			return true
		}
	}
	return false
}

// (a) The later of two byte-identical replies is a twin, and a rule that
// delivers it gets a winner whose Body and Raw lie in its own buffer:
// the sibling's is recycled when the dispatch completes.
func TestScatterTwinWinnerOwnsItsBody(t *testing.T) {
	fleet := newPipeFleet(t, map[string]*pipeRelease{
		"early": newPipeRelease(t, 0, false),
		"late":  newPipeRelease(t, 0, false),
	})
	eps := endpoints("early", "late")
	var twin atomic.Bool
	d := New(Config{
		Begin: beginOnce(fleet.wc),
		OnOutcome: func(o Outcome) {
			early, late := o.Replies[0], o.Replies[1]
			twin.Store(sameSlice(early.Body, late.Body) && !within(late.Buf.B, late.Body) && within(late.Buf.B, late.Raw))
		},
	})
	t.Cleanup(func() { _ = d.Close() })
	for round := range 3 {
		req := baseRequest(eps, ModeReliability)
		req.Deliver = adjudicate.Preferred{Release: "late"}
		winner, err := d.Do(req)
		if err != nil || winner.Release != "late" {
			t.Fatalf("round %d: winner %q, err %v", round, winner.Release, err)
		}
		if !twin.Load() {
			t.Fatalf("round %d: the later reply was not a twin of the earlier one", round)
		}
		if winner.Buf == nil || !within(winner.Buf.B, winner.Body) || !within(winner.Buf.B, winner.Raw) {
			t.Fatalf("round %d: the delivered twin's Body or Raw is not in its own buffer", round)
		}
		if string(winner.Body) != "<addResponse><sum>3</sum></addResponse>" || !soap.Framed(winner.Raw, winner.Body) {
			t.Fatalf("round %d: delivered Body %q, Raw %q", round, winner.Body, winner.Raw)
		}
		winner.ReleaseBody()
	}
}

// scripted is a canned release answer: a status and body, after delay.
type scripted struct {
	status int
	body   []byte
	delay  time.Duration
}

// scriptedBegin answers each release URL with its script, in a fresh
// copy of the body, so that identical replies are identical bytes and
// not one slice.
func scriptedBegin(byURL map[string]scripted) func(ctx context.Context, url, ct string, body []byte) wire.Call {
	return func(ctx context.Context, url, _ string, _ []byte) wire.Call {
		s := byURL[url]
		return wire.Deferred(func() (httpx.Result, error) {
			if s.delay > 0 {
				select {
				case <-ctx.Done():
					return httpx.Result{}, ctx.Err()
				case <-time.After(s.delay):
				}
			}
			return httpx.Result{Status: s.status, Body: append([]byte(nil), s.body...), Attempts: 1}, nil
		})
	}
}

// twinRun dispatches once over scripts, one target each, and reports
// how many replies the codec decoded and, for each reply, the index of
// the earlier one whose Body it is (-1 for none).
func twinRun(t *testing.T, scripts ...scripted) (decodes int64, twinOf []int) {
	t.Helper()
	hosts := make([]string, len(scripts))
	byURL := make(map[string]scripted, len(scripts))
	for i, s := range scripts {
		hosts[i] = string(rune('a' + i))
		byURL["http://"+hosts[i]] = s
	}
	codec := &countingCodec{Codec: soapcodec.Default}
	d := New(Config{
		Begin: scriptedBegin(byURL),
		Codec: codec,
		OnOutcome: func(o Outcome) {
			twinOf = make([]int, len(o.Replies))
			for i, r := range o.Replies {
				twinOf[i] = -1
				for k, s := range o.Replies[:i] {
					if sameSlice(s.Body, r.Body) {
						twinOf[i] = k
					}
				}
			}
		},
	})
	defer d.Close()
	winner, _ := d.Do(baseRequest(endpoints(hosts...), ModeReliability))
	winner.ReleaseBody()
	return codec.decodes.Load(), twinOf
}

// (b) Identical bytes under another status, and identical faults, are
// each decoded: only a valid sibling's classification is taken over.
func TestScatterTwinNeedsAValidSiblingOfTheSameStatus(t *testing.T) {
	ok := okEnvelope()
	fault := soap.FaultEnvelope(soap.ServerFault("boom"))
	for _, tc := range []struct {
		name    string
		scripts []scripted
	}{
		{"other-status", []scripted{{status: http.StatusOK, body: ok}, {status: http.StatusNonAuthoritativeInfo, body: ok}}},
		{"other-status-first", []scripted{{status: http.StatusNonAuthoritativeInfo, body: ok}, {status: http.StatusOK, body: ok}}},
		{"identical-faults", []scripted{{status: http.StatusInternalServerError, body: fault}, {status: http.StatusInternalServerError, body: fault}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			decodes, twinOf := twinRun(t, tc.scripts...)
			if decodes != 2 || twinOf[1] != -1 {
				t.Fatalf("%d decodes, twins %v, want both replies decoded", decodes, twinOf)
			}
		})
	}
}

// (c) Of three replies two of which agree, only the later of the two is
// a twin, of the earlier, whichever target that is.
func TestScatterTwinOfTheAgreeingSibling(t *testing.T) {
	three := soap.EnvelopeRaw([]byte(`<addResponse><sum>3</sum></addResponse>`))
	four := soap.EnvelopeRaw([]byte(`<addResponse><sum>4</sum></addResponse>`))
	const late = 20 * time.Millisecond
	for _, tc := range []struct {
		name    string
		scripts []scripted
		want    []int
	}{
		{"xyy", []scripted{{http.StatusOK, three, 0}, {http.StatusOK, four, 0}, {http.StatusOK, four, late}}, []int{-1, -1, 1}},
		{"yxy", []scripted{{http.StatusOK, four, 0}, {http.StatusOK, three, 0}, {http.StatusOK, four, late}}, []int{-1, -1, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			decodes, twinOf := twinRun(t, tc.scripts...)
			if decodes != 2 {
				t.Errorf("%d decodes, want 2", decodes)
			}
			for i, k := range tc.want {
				if twinOf[i] != k {
					t.Fatalf("twins %v, want %v", twinOf, tc.want)
				}
			}
		})
	}
}
