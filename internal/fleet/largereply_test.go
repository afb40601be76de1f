package fleet

// The observation phase's judgment of 64 KB replies on a connection the
// fleet took over: the canonical comparison and the declared-length
// write, end to end over loopback.

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"wsupgrade/internal/core"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/soap"
)

// largeReply is a 64 KB reply in a namespace under prefix: two
// attributes, the first in the order order picks, indent before each
// child, and check, a copy of the sum, in its last kilobyte.
func largeReply(prefix string, order int, indent, check string) []byte {
	attrs := [2]string{` id="17"`, ` version="1.1"`}
	var b strings.Builder
	b.WriteString("<" + prefix + ":addResponse xmlns:" + prefix + `="urn:add"` + attrs[order] + attrs[1-order] + ">")
	for _, child := range []struct{ name, text string }{
		{"sum", "00000003"}, {"pad", strings.Repeat("z9Qk", 16<<10)}, {"check", check},
	} {
		b.WriteString(indent + "<" + prefix + ":" + child.name + ">" + child.text + "</" + prefix + ":" + child.name + ">")
	}
	b.WriteString(strings.TrimSuffix(indent, "  ") + "</" + prefix + ":addResponse>")
	return []byte(b.String())
}

// A new release whose reply is the old one's, the old one's reformatted
// (indentation, attribute order, another prefix) or the old one's with
// a wrong digit in its last kilobyte is judged correct, correct and
// failed, on demands the fleet reads and answers itself; the consumer
// gets the old release's reply, as it arrived, every time.
func TestLargeRepliesOnTakenOverConnection(t *testing.T) {
	right := largeReply("p", 0, "", "00000003")
	variants := [][]byte{right, largeReply("q", 1, "\n  ", "00000003"), largeReply("p", 0, "", "00000004")}
	var calls atomic.Int64
	release := func(reply func() []byte) string {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			w.Header().Set("Content-Type", soap.ContentType)
			_, _ = w.Write(soap.EnvelopeRaw(reply()))
		}))
		t.Cleanup(srv.Close)
		return srv.URL
	}
	f, err := New(Config{Units: []UnitConfig{{Name: "u", Engine: core.Config{
		Releases: []core.Endpoint{
			{Version: "1.0", URL: release(func() []byte { return right })},
			{Version: "1.1", URL: release(func() []byte { return variants[(calls.Add(1)-1)%3] })},
		},
		InitialPhase: core.PhaseObservation,
		Oracle:       oracle.Reference{Release: "1.0"},
	}}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	fs := serveFront(t, f)
	c := dialRaw(t, fs.addr)

	const rounds = 8
	want := soap.EnvelopeRaw(right)
	for i := 0; i < 3*rounds; i++ {
		r := c.do(post("/u/", soap.ContentType, addEnvelope(t, 1, 2)))
		if r.status != http.StatusOK || !bytes.Equal(r.body, want) {
			t.Fatalf("demand %d: HTTP %d, %d bytes: not the old release's reply", i, r.status, len(r.body))
		}
	}
	if n := fs.hijacked.Load(); n != 1 {
		t.Fatalf("%d takeovers, want 1", n)
	}
	e := f.Units()[0].Engine()
	for _, w := range []struct {
		version         string
		demands, judged int
		why             string
	}{
		{"1.0", 3 * rounds, 0, "the reference"},
		{"1.1", 3 * rounds, rounds, "a wrong digit in the last kilobyte, and nothing else"},
	} {
		st, err := e.Stats(w.version)
		if err != nil {
			t.Fatal(err)
		}
		if st.Demands != w.demands || st.JudgedFailures != w.judged {
			t.Fatalf("release %s: %d demands, %d judged failed; want %d and %d (%s)",
				w.version, st.Demands, st.JudgedFailures, w.demands, w.judged, w.why)
		}
	}
}
