package fleet

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wsupgrade/internal/core"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/protocol"
	"wsupgrade/internal/protocol/jsoncodec"
	"wsupgrade/internal/protocol/soapcodec"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/testutil"
)

// passThrough hosts a fleet that is not its server's Handler itself, so
// it never takes a connection over: every demand stays on net/http.
type passThrough struct{ f *Fleet }

func (p passThrough) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.f.ServeHTTP(w, r) }

// frontServer is an http.Server on a loopback listener that counts the
// connections its handler hijacked; onState, when given, also sees every
// connection state change.
type frontServer struct {
	srv      *http.Server
	addr     string
	hijacked atomic.Int32
	served   chan error
}

func serveFront(t *testing.T, h http.Handler, onState ...func(*http.Server, http.ConnState)) *frontServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &frontServer{addr: ln.Addr().String(), served: make(chan error, 1)}
	fs.srv = &http.Server{
		Handler:  h,
		ErrorLog: log.New(io.Discard, "", 0),
		ConnState: func(_ net.Conn, s http.ConnState) {
			if s == http.StateHijacked {
				fs.hijacked.Add(1)
			}
			for _, f := range onState {
				f(fs.srv, s)
			}
		},
	}
	go func() { fs.served <- fs.srv.Serve(ln) }()
	t.Cleanup(func() {
		_ = fs.srv.Close()
		<-fs.served
	})
	return fs
}

// rawConn is a consumer that writes requests and reads responses as
// bytes on one connection.
type rawConn struct {
	t  *testing.T
	nc net.Conn
	br *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	return &rawConn{t: t, nc: nc, br: bufio.NewReader(nc)}
}

type rawResponse struct {
	status int
	header http.Header
	close  bool // "Connection: close", which http.ReadResponse takes out of header
	body   []byte
}

func (c *rawConn) send(req string) {
	c.t.Helper()
	if _, err := io.WriteString(c.nc, req); err != nil {
		c.t.Fatal(err)
	}
}

func (c *rawConn) read() rawResponse {
	c.t.Helper()
	_ = c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		testutil.FatalWithStacks(c.t, "reading a response: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return rawResponse{resp.StatusCode, resp.Header, resp.Close, body}
}

func (c *rawConn) do(req string) rawResponse {
	c.t.Helper()
	c.send(req)
	return c.read()
}

// closed reports whether the server closed the connection, waiting up
// to 10 s for it.
func (c *rawConn) closed() bool {
	_ = c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	_, err := c.br.ReadByte()
	return err == io.EOF
}

// post renders a POST with a Content-Length; extra are further header
// lines.
func post(path, contentType, body string, extra ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: fleet.test\r\nContent-Type: %s\r\nContent-Length: %d\r\n", path, contentType, len(body))
	for _, h := range extra {
		b.WriteString(h + "\r\n")
	}
	b.WriteString("\r\n")
	return b.String() + body
}

func addEnvelope(t *testing.T, a, b int) string {
	t.Helper()
	env, err := soap.Envelope(service.AddRequest{A: a, B: b})
	if err != nil {
		t.Fatal(err)
	}
	return string(env)
}

// conformanceFleet hosts a SOAP unit whose replies pass through framed,
// a SOAP unit that publishes confidence (re-rendered replies, the §6.2
// operations) and a JSON unit, all in the observation phase, so that
// two fleets built from it answer the same demands alike.
func conformanceFleet(t *testing.T, releases []core.Endpoint) *Fleet {
	t.Helper()
	contract := service.DemoContract("1.0")
	unit := func(name string, mutate func(*core.Config)) UnitConfig {
		cfg := core.Config{Releases: releases, InitialPhase: core.PhaseObservation, Oracle: oracle.Header{}, Seed: 7}
		if mutate != nil {
			mutate(&cfg)
		}
		return UnitConfig{Name: name, Engine: cfg}
	}
	f, err := New(Config{Units: []UnitConfig{
		unit("soap", nil),
		unit("pub", func(c *core.Config) {
			c.Inference, c.PublishHeader, c.EnableConfOps, c.Contract = testInference(), true, true, &contract
		}),
		unit("json", func(c *core.Config) { c.Codec = jsoncodec.Default }),
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f
}

// The two paths answer alike: the same demands, sent over net/http (a
// wrapped fleet) and over a taken-over connection, get the same status,
// the same header fields but Date, and the same body bytes. A
// connection's first demand, which net/http serves, goes to both first.
func TestFrontDoorAnswersAsNetHTTP(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	releases := []core.Endpoint{old, new_}
	viaHTTP := serveFront(t, passThrough{conformanceFleet(t, releases)})
	taken := serveFront(t, conformanceFleet(t, releases))

	const xmlCT, jsonCT = soap.ContentType, "application/json"
	oversize := strings.Repeat("x", 10<<20+100)
	demands := []struct{ name, req string }{
		{"soap-framed", post("/soap/", xmlCT, addEnvelope(t, 2, 3))},
		{"soap-adjudicator", post("/soap/", xmlCT, addEnvelope(t, 4, 5), "X-Wsupgrade-Adjudicator: majority")},
		{"soap-rendered-published", post("/pub/", xmlCT, addEnvelope(t, 6, 7))},
		{"soap-conf-query", post("/pub/", xmlCT, string(soap.EnvelopeRaw([]byte(`<OperationConfRequest><operation>add</operation></OperationConfRequest>`))))},
		{"soap-conf-variant", post("/pub/", xmlCT, string(soap.EnvelopeRaw([]byte(`<addConfRequest><a>2</a><b>3</b></addConfRequest>`))))},
		{"soap-fault", post("/soap/", xmlCT, "<garbage>")},
		{"soap-empty", post("/soap/", xmlCT, "")},
		{"soap-415", post("/soap/", jsonCT, `{"a":1,"b":2}`)},
		{"soap-oversize", post("/soap/", xmlCT, oversize)},
		{"json-success", post("/json/add", jsonCT, `{"a":19,"b":23}`)},
		{"json-fault", post("/json/add", jsonCT, `{"a":`)},
		{"json-415", post("/json/add", xmlCT, addEnvelope(t, 1, 1))},
		{"json-unknown-operation", post("/json/nosuch", jsonCT, `{"a":1}`)},
	}
	a, b := dialRaw(t, viaHTTP.addr), dialRaw(t, taken.addr)
	first := post("/soap/", xmlCT, addEnvelope(t, 1, 1))
	a.do(first)
	b.do(first)
	for _, d := range demands {
		want, got := a.do(d.req), b.do(d.req)
		if got.status != want.status || got.close != want.close || !bytes.Equal(got.body, want.body) {
			t.Errorf("%s: taken over %d (close %v) %q, net/http %d (close %v) %q",
				d.name, got.status, got.close, clip(got.body), want.status, want.close, clip(want.body))
		}
		if g, w := fields(got.header), fields(want.header); !slices.Equal(g, w) {
			t.Errorf("%s: taken over header %q, net/http %q", d.name, g, w)
		}
	}
	if n := taken.hijacked.Load(); n != 1 {
		t.Errorf("the fleet took %d connections over, want 1", n)
	}
	if n := viaHTTP.hijacked.Load(); n != 0 {
		t.Errorf("a wrapped fleet took %d connections over", n)
	}
}

func clip(b []byte) []byte { return b[:min(len(b), 200)] }

// fields lists a header's fields but Date, one "Name: value" each.
func fields(h http.Header) []string {
	var out []string
	for k, vv := range h {
		if k != "Date" {
			for _, v := range vv {
				out = append(out, k+": "+v)
			}
		}
	}
	slices.Sort(out)
	return out
}

// A connection's first demand stays on net/http and its second takes
// the connection over. Whatever is not a unit demand then goes back to
// net/http with its normal answer, and the connection goes on serving
// demands, taken over again at the next one.
func TestFrontDoorHandsBack(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	_, new_ := startRelease(t, "1.1", service.FaultPlan{})
	f := conformanceFleet(t, []core.Endpoint{old, new_})
	fs := serveFront(t, f)
	c := dialRaw(t, fs.addr)
	demand := func(step string, wantHijacks int32) {
		t.Helper()
		if r := c.do(post("/soap/", soap.ContentType, addEnvelope(t, 1, 2))); r.status != http.StatusOK ||
			!bytes.Contains(r.body, []byte("<sum>3</sum>")) {
			t.Fatalf("after %s: demand answered %d %s", step, r.status, r.body)
		}
		if n := fs.hijacked.Load(); n != wantHijacks {
			t.Fatalf("after %s: %d takeovers, want %d", step, n, wantHijacks)
		}
	}
	demand("the first demand", 0)
	demand("the second demand", 1)
	hijacks := int32(1)
	for _, step := range []struct {
		name, req  string
		wantStatus int
		wantBody   string
	}{
		{"GET /fleet/units", "GET /fleet/units HTTP/1.1\r\nHost: fleet.test\r\n\r\n", 200, `"unit": "soap"`},
		{"GET /pub/wsdl", "GET /pub/wsdl HTTP/1.1\r\nHost: fleet.test\r\n\r\n", 200, "OperationConf"},
		{"a chunked POST", "POST /soap/ HTTP/1.1\r\nHost: fleet.test\r\nContent-Type: text/xml\r\nTransfer-Encoding: chunked\r\n\r\n" +
			fmt.Sprintf("%x\r\n%s\r\n0\r\n\r\n", len(addEnvelope(t, 4, 4)), addEnvelope(t, 4, 4)), 200, "<sum>8</sum>"},
		{"Expect: 100-continue", post("/soap/", soap.ContentType, addEnvelope(t, 5, 5), "Expect: 100-continue"), 200, "<sum>10</sum>"},
		{"an 8 KB head", post("/soap/", soap.ContentType, addEnvelope(t, 6, 6), "X-Pad: "+strings.Repeat("p", 8<<10)), 200, "<sum>12</sum>"},
	} {
		c.send(step.req)
		r := c.read()
		if r.status == http.StatusContinue {
			r = c.read()
		}
		if r.status != step.wantStatus || !bytes.Contains(r.body, []byte(step.wantBody)) {
			t.Fatalf("%s: %d %s", step.name, r.status, clip(r.body))
		}
		hijacks++ // the next demand net/http reads takes the connection over again
		demand(step.name, hijacks)
	}

	// An event stream is net/http's to the end of the connection.
	c.send("GET /fleet/events HTTP/1.1\r\nHost: fleet.test\r\n\r\n")
	_ = c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("event stream: %v %v", err, resp)
	}
	if line, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil || !strings.HasPrefix(line, "event: ") {
		t.Fatalf("event stream's first line %q, %v", line, err)
	}

	// "Connection: close" is answered, and then the connection ends.
	c2 := dialRaw(t, fs.addr)
	c2.do(post("/soap/", soap.ContentType, addEnvelope(t, 1, 1)))
	c2.do(post("/soap/", soap.ContentType, addEnvelope(t, 1, 1)))
	if r := c2.do(post("/soap/", soap.ContentType, addEnvelope(t, 2, 2), "Connection: close")); r.status != 200 || !r.close {
		t.Fatalf("Connection: close answered %d %v", r.status, r.header)
	}
	if !c2.closed() {
		t.Fatal("the connection outlived Connection: close")
	}
}

// holdingRelease is a release whose add demands with a = 99 wait until
// the test lets them go (or the mediator hangs up); it reports each held
// demand on entered.
func holdingRelease(t *testing.T, version string) (ep core.Endpoint, entered <-chan struct{}, let func()) {
	t.Helper()
	rel, err := service.New(service.DemoContract(version), service.DemoBehaviours(), service.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	in, hold := make(chan struct{}, 16), make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		body, _ := io.ReadAll(r.Body)
		if bytes.Contains(body, []byte("<a>99</a>")) {
			in <- struct{}{}
			select {
			case <-hold:
			case <-r.Context().Done():
				return
			}
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		rel.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	var once atomic.Bool
	return core.Endpoint{Version: version, URL: ts.URL}, in, func() {
		if once.CompareAndSwap(false, true) {
			close(hold)
		}
	}
}

func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		testutil.FatalWithStacks(t, "%s: not within 10 s", what)
	}
}

// A consumer that hangs up on a taken-over connection during a demand
// that outlives dispatch's watch tick cancels it: the outcome is
// ConsumerGone and no release is charged with it. So also when the hang-up
// comes after Fleet.Close has cut the connection's reads short.
func TestFrontDoorConsumerGone(t *testing.T) {
	for _, closeFirst := range []bool{false, true} {
		t.Run(fmt.Sprintf("close-first=%v", closeFirst), func(t *testing.T) {
			ep, entered, let := holdingRelease(t, "1.0")
			t.Cleanup(let)
			f, err := New(Config{Units: []UnitConfig{{Name: "u", Engine: core.Config{
				Releases: []core.Endpoint{ep}, InitialPhase: core.PhaseOldOnly, Timeout: time.Minute}}}})
			if err != nil {
				t.Fatal(err)
			}
			fs := serveFront(t, f)
			c := dialRaw(t, fs.addr)
			if r := c.do(post("/u/", soap.ContentType, addEnvelope(t, 1, 1))); r.status != 200 {
				t.Fatalf("first demand: %d %s", r.status, r.body)
			}
			c.send(post("/u/", soap.ContentType, addEnvelope(t, 99, 1)))
			await(t, entered, "the held demand reaching the release")
			time.Sleep(20 * time.Millisecond) // past the watch tick: the watch's read is armed
			closed := make(chan error, 1)
			if closeFirst {
				go func() { closed <- f.Close() }()
				time.Sleep(20 * time.Millisecond) // the watch's read is cut short
			}
			_ = c.nc.Close()
			if !closeFirst {
				closed <- f.Close()
			}
			select { // Close returns once the demand is answered
			case err := <-closed:
				if err != nil {
					t.Fatal(err)
				}
			case <-time.After(10 * time.Second):
				testutil.FatalWithStacks(t, "the hang-up went unseen: Fleet.Close still waits")
			}
			st, err := f.Units()[0].Engine().Stats("1.0")
			if err != nil {
				t.Fatal(err)
			}
			if st.Demands != 1 || st.Evident != 0 {
				t.Fatalf("release stats %+v: the hang-up was charged to it", st)
			}
			if n := fs.hijacked.Load(); n != 1 {
				t.Fatalf("%d takeovers, want 1", n)
			}
		})
	}
}

// A byte the watch reads ahead is the first byte of the next request.
func TestFrontDoorWatchKeepsReadAheadByte(t *testing.T) {
	ep, entered, let := holdingRelease(t, "1.0")
	t.Cleanup(let)
	f, err := New(Config{Units: []UnitConfig{{Name: "u", Engine: core.Config{
		Releases: []core.Endpoint{ep}, InitialPhase: core.PhaseOldOnly, Timeout: time.Minute}}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	fs := serveFront(t, f)
	c := dialRaw(t, fs.addr)
	c.do(post("/u/", soap.ContentType, addEnvelope(t, 1, 1)))
	c.send(post("/u/", soap.ContentType, addEnvelope(t, 99, 1)))
	await(t, entered, "the held demand reaching the release")
	time.Sleep(20 * time.Millisecond) // the watch's read is in flight
	c.send(post("/u/", soap.ContentType, addEnvelope(t, 20, 22)))
	time.Sleep(20 * time.Millisecond) // and has read the next request's first byte
	let()
	if r := c.read(); r.status != 200 || !bytes.Contains(r.body, []byte("<sum>100</sum>")) {
		t.Fatalf("held demand: %d %s", r.status, r.body)
	}
	if r := c.read(); r.status != 200 || !bytes.Contains(r.body, []byte("<sum>42</sum>")) {
		t.Fatalf("the demand behind it: %d %s", r.status, r.body)
	}
	if n := fs.hijacked.Load(); n != 1 {
		t.Fatalf("%d takeovers, want 1: the next request was handed back", n)
	}
}

// After the server's Shutdown and then Fleet.Close, a demand in flight
// on a taken-over connection is answered, idle taken-over connections
// close, and nothing is left running. A server whose first takeover is
// of a demand already in flight when its Shutdown began closes that
// connection after the answer too.
func TestFrontDoorShutdownAndClose(t *testing.T) {
	testutil.CheckGoroutines(t)
	ep, entered, let := holdingRelease(t, "1.0")
	t.Cleanup(let)
	newFleet := func() *Fleet {
		f, err := New(Config{Units: []UnitConfig{{Name: "u", Engine: core.Config{
			Releases: []core.Endpoint{ep}, InitialPhase: core.PhaseOldOnly, Timeout: time.Minute}}}})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	// Shutdown begins between net/http reading a connection's second
	// demand, the first the fleet takes over on that server, and its
	// handler.
	late := newFleet()
	shutting := make(chan struct{})
	var actives atomic.Int32
	lateFS := serveFront(t, late, func(srv *http.Server, s http.ConnState) {
		if s == http.StateActive && actives.Add(1) == 2 {
			srv.RegisterOnShutdown(func() { close(shutting) })
			go func() { _ = srv.Shutdown(context.Background()) }()
			select {
			case <-shutting:
			case <-time.After(10 * time.Second):
				t.Error("Shutdown never began")
			}
		}
	})
	c := dialRaw(t, lateFS.addr)
	c.do(post("/u/", soap.ContentType, addEnvelope(t, 1, 1)))
	if r := c.do(post("/u/", soap.ContentType, addEnvelope(t, 2, 1))); r.status != 200 || !r.close {
		t.Fatalf("the demand in flight as Shutdown began: %d, close %v", r.status, r.close)
	}
	if !c.closed() {
		t.Fatal("the connection outlived its answer after Shutdown")
	}
	if n := lateFS.hijacked.Load(); n != 1 {
		t.Fatalf("%d takeovers, want 1", n)
	}
	if err := late.Close(); err != nil {
		t.Fatal(err)
	}

	f := newFleet()
	fs := serveFront(t, f)
	busy, idle := dialRaw(t, fs.addr), dialRaw(t, fs.addr)
	busy.do(post("/u/", soap.ContentType, addEnvelope(t, 1, 1)))
	idle.do(post("/u/", soap.ContentType, addEnvelope(t, 1, 1)))
	idle.do(post("/u/", soap.ContentType, addEnvelope(t, 1, 1))) // taken over
	busy.send(post("/u/", soap.ContentType, addEnvelope(t, 99, 1)))
	await(t, entered, "the held demand reaching the release")

	if err := fs.srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !idle.closed() {
		t.Fatal("Shutdown left an idle taken-over connection open")
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		if err := f.Close(); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-closed:
		t.Fatal("Fleet.Close returned with a demand in flight")
	case <-time.After(50 * time.Millisecond):
	}
	let()
	if r := busy.read(); r.status != 200 || !r.close {
		t.Fatalf("the demand in flight: %d %v %s", r.status, r.header, r.body)
	}
	await(t, closed, "Fleet.Close")
	if !busy.closed() {
		t.Fatal("the busy connection outlived its answer")
	}
}

// panicCodec is SOAP, except that a body saying "panic" panics.
type panicCodec struct{ soapcodec.Codec }

func (c panicCodec) DecodeRequest(path string, body []byte) (protocol.Request, error) {
	if bytes.Contains(body, []byte("panic")) {
		panic("decoding a demand")
	}
	return c.Codec.DecodeRequest(path, body)
}

// A panic in a demand closes its connection, and the fleet serves on.
func TestFrontDoorPanicClosesConnection(t *testing.T) {
	_, old := startRelease(t, "1.0", service.FaultPlan{})
	f, err := New(Config{Units: []UnitConfig{{Name: "u", Engine: core.Config{
		Releases: []core.Endpoint{old}, InitialPhase: core.PhaseOldOnly, Codec: panicCodec{}}}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	fs := serveFront(t, f)
	c := dialRaw(t, fs.addr)
	c.do(post("/u/", soap.ContentType, addEnvelope(t, 1, 1)))
	c.send(post("/u/", soap.ContentType, "panic"))
	if !c.closed() {
		t.Fatal("a panicking demand left its connection open")
	}
	if n := fs.hijacked.Load(); n != 1 {
		t.Fatalf("%d takeovers, want 1: the panic was not on a taken-over connection", n)
	}
	if r := dialRaw(t, fs.addr).do(post("/u/", soap.ContentType, addEnvelope(t, 2, 2))); r.status != 200 {
		t.Fatalf("after the panic: %d %s", r.status, r.body)
	}
}
