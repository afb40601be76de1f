package core

// The byte-proportional path end to end: 70 KB replies through the wire
// transport (over Config.Dial), the observation phase's comparison, the
// event log and the re-enveloped write.

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"wsupgrade/internal/oracle"
	"wsupgrade/internal/soap"
)

// scriptedRelease is a release behind Config.Dial: each connection's
// n-th request gets replies[pick(n)], framed as HTTP/1.1 keep-alive.
type scriptedRelease struct {
	replies [][]byte
	pick    func(n int) int
}

func cannedReply(body []byte) []byte {
	env := soap.EnvelopeRaw(body)
	return append([]byte("HTTP/1.1 200 OK\r\nContent-Type: "+soap.ContentType+
		"\r\nContent-Length: "+strconv.Itoa(len(env))+"\r\n\r\n"), env...)
}

func (s *scriptedRelease) serve(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	for n := 0; ; n++ {
		length := 0
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			if v, ok := strings.CutPrefix(line, "Content-Length: "); ok {
				length, _ = strconv.Atoi(strings.TrimSpace(v))
			}
			if line == "\r\n" {
				break
			}
		}
		if _, err := br.Discard(length); err != nil {
			return
		}
		if _, err := c.Write(s.replies[s.pick(n)]); err != nil {
			return
		}
	}
}

func TestLargeRepliesInObservation(t *testing.T) {
	pad := strings.Repeat("z9Qk", 70<<10/4)
	body := func(sum string) []byte {
		return []byte("<addResponse><sum>" + sum + "</sum><pad>" + pad + "</pad></addResponse>")
	}
	right, wrong := body("00000003"), body("00000004")
	// The same document as right to a canonical comparison, and not to
	// a byte comparison: reordered attributes aside, everything
	// formatting can vary.
	formatted := []byte("<!-- v1.1 -->\n<addResponse >\n  <sum>00000003</sum>\n  <pad><![CDATA[" + pad + "]]></pad>\n</addResponse>\n")

	const (
		identical = iota
		reformatted
		offByOne
	)
	oldRel := &scriptedRelease{replies: [][]byte{cannedReply(right)}, pick: func(int) int { return 0 }}
	newRel := &scriptedRelease{
		replies: [][]byte{identical: cannedReply(right), reformatted: cannedReply(formatted), offByOne: cannedReply(wrong)},
		pick:    func(n int) int { return n % 3 },
	}
	var sink bytes.Buffer
	e, err := New(Config{
		Releases: []Endpoint{
			{Version: "1.0", URL: "http://old.invalid"},
			{Version: "1.1", URL: "http://new.invalid"},
		},
		InitialPhase: PhaseObservation,
		Oracle:       oracle.Reference{Release: "1.0"},
		Store:        &sink,
		Dial: func(ctx context.Context, network, addr string) (net.Conn, error) {
			client, server := net.Pipe()
			rel := oldRel
			if strings.HasPrefix(addr, "new.") {
				rel = newRel
			}
			go rel.serve(server)
			return client, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = e.Close() }()

	request := soap.EnvelopeRaw([]byte("<addRequest><a>1</a><b>2</b></addRequest>"))
	demand := func() {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/", bytes.NewReader(request))
		req.Header.Set("Content-Type", soap.ContentType)
		rec := httptest.NewRecorder()
		e.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("HTTP %d: %.200s", rec.Code, rec.Body.String())
		}
		// Observation delivers the old release, whatever the new one
		// said: the wrong sum never reaches the consumer.
		if p, err := soap.Decode(rec.Body.Bytes()); err != nil || !bytes.Equal(p.BodyXML, right) {
			t.Fatalf("delivered body is not the old release's reply (%d bytes, %v)", len(p.BodyXML), err)
		}
	}

	// Identical, reformatted, off by one digit, in turn. Only the last
	// is a failure of the new release.
	const rounds = 12
	for i := 0; i < 3*rounds; i++ {
		demand()
	}
	stats, err := e.Stats("1.1")
	if err != nil {
		t.Fatal(err)
	}
	if stats.Demands != 3*rounds || stats.JudgedFailures != rounds {
		t.Fatalf("new release: %d demands, %d judged failed; want %d and %d (a formatting-only variant is correct, an off-by-one digit is not)",
			stats.Demands, stats.JudgedFailures, 3*rounds, rounds)
	}
	if old, _ := e.Stats("1.0"); old.JudgedFailures != 0 {
		t.Fatalf("old release judged failed %d times", old.JudgedFailures)
	}
	// The event log has each demand's verdicts and none of its replies.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if recs := sinkRecords(t, &sink); len(recs) != 3*rounds {
		t.Fatalf("event log has %d records, want %d", len(recs), 3*rounds)
	}
	if sink.Len() > 3*rounds<<10 {
		t.Fatalf("event log is %d bytes for %d demands: it holds reply bytes", sink.Len(), 3*rounds)
	}

	// What this demand mix allocates is not asserted here: under -race
	// sync.Pool drops buffers, and an allocation budget failed 3 runs in
	// 60; the EngineInProcess/observation-large allocs gate of `make
	// bench` checks the same path without the race detector.
}
