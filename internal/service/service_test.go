package service

import (
	"bytes"
	"encoding/json"
	"encoding/xml"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wsupgrade/internal/oracle"
	"wsupgrade/internal/protocol"
	"wsupgrade/internal/protocol/jsoncodec"
	"wsupgrade/internal/protocol/soapcodec"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/soap"
)

// face is one of a release's two protocols as a consumer sees it.
type face struct {
	name        string
	contentType string
	// codec reads replies the way the mediator does.
	codec protocol.Codec
	// url addresses operation op at a release's base URL.
	url func(base, op string) string
	// encode renders a demo request value as a request body.
	encode func(v any) ([]byte, error)
	// unmarshal reads a 200's payload, as codec returns it, into v.
	unmarshal func(payload []byte, v any) error
}

var faces = []face{
	{
		name: "soap", contentType: soap.ContentType, codec: soapcodec.Default,
		url:       func(base, _ string) string { return base + "/" },
		encode:    func(v any) ([]byte, error) { return soap.Envelope(v) },
		unmarshal: xml.Unmarshal,
	},
	{
		name: "json", contentType: "application/json", codec: jsoncodec.Default,
		url:       func(base, op string) string { return base + "/" + op },
		encode:    json.Marshal,
		unmarshal: json.Unmarshal,
	},
}

// reply is one demand's answer as the consumer got it.
type reply struct {
	status int
	header http.Header
	body   []byte
	// payload is the codec's reading of a 200, err its reading of
	// anything else.
	payload []byte
	err     error
}

// send posts the demo value in to operation op over the face.
func (f face) send(client *http.Client, base, op string, in any) (reply, error) {
	body, err := f.encode(in)
	if err != nil {
		return reply{}, err
	}
	req, err := http.NewRequest(http.MethodPost, f.url(base, op), bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", f.contentType)
	res, err := client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer res.Body.Close()
	data, err := io.ReadAll(res.Body)
	if err != nil {
		return reply{}, err
	}
	r := reply{status: res.StatusCode, header: res.Header, body: data}
	r.payload, _, r.err = f.codec.DecodeReply(res.StatusCode, data)
	return r, nil
}

// call is send for a demand that must get an answer, whose 200 payload
// is decoded into out when out is non-nil.
func (f face) call(t *testing.T, base, op string, in, out any) reply {
	t.Helper()
	r, err := f.send(http.DefaultClient, base, op, in)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil && r.err == nil {
		if err := f.unmarshal(r.payload, out); err != nil {
			t.Fatalf("decoding %s: %v", r.payload, err)
		}
	}
	return r
}

// forEachFace runs test once per protocol, as subtests.
func forEachFace(t *testing.T, test func(t *testing.T, f face)) {
	for _, f := range faces {
		t.Run(f.name, func(t *testing.T) { test(t, f) })
	}
}

func startRelease(t *testing.T, version string, plan FaultPlan) (*Release, *httptest.Server) {
	t.Helper()
	rel, err := New(DemoContract(version), DemoBehaviours(), plan)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rel.Handler())
	t.Cleanup(ts.Close)
	return rel, ts
}

func TestCorrectService(t *testing.T) {
	forEachFace(t, func(t *testing.T, f face) {
		rel, ts := startRelease(t, "1.0", FaultPlan{})
		var out Operation1Response
		if r := f.call(t, ts.URL, "operation1", Operation1Request{Param1: 21, Param2: "x"}, &out); r.err != nil {
			t.Fatal(r.err)
		}
		if out.Op1Result != "x/42" {
			t.Fatalf("result = %q", out.Op1Result)
		}
		var sum AddResponse
		if r := f.call(t, ts.URL, "add", AddRequest{A: 2, B: 3}, &sum); r.err != nil {
			t.Fatal(r.err)
		}
		if sum.Sum != 5 {
			t.Fatalf("sum = %d", sum.Sum)
		}
		if rel.Calls() != 2 {
			t.Fatalf("calls = %d", rel.Calls())
		}
		if rel.Injected()[relmodel.Correct] != 2 {
			t.Fatalf("injected = %v", rel.Injected())
		}
	})
}

func TestValidation(t *testing.T) {
	if _, err := New(DemoContract("1.0"), nil, FaultPlan{}); !errors.Is(err, ErrBadService) {
		t.Fatalf("missing handlers: %v", err)
	}
	bad := FaultPlan{Profile: relmodel.Profile{CR: 0.5}}
	if _, err := New(DemoContract("1.0"), DemoBehaviours(), bad); err == nil {
		t.Fatal("broken profile accepted")
	}
}

func TestEvidentFailureInjection(t *testing.T) {
	forEachFace(t, func(t *testing.T, f face) {
		rel, ts := startRelease(t, "1.1", FaultPlan{
			Profile: relmodel.Profile{CR: 0, ER: 1, NER: 0},
			Seed:    1,
		})
		r := f.call(t, ts.URL, "add", AddRequest{A: 1, B: 1}, nil)
		if r.status != http.StatusInternalServerError || !protocol.IsFault(r.err) {
			t.Fatalf("reply = %d %v, want an injected fault", r.status, r.err)
		}
		if !strings.Contains(r.err.Error(), "injected evident failure") {
			t.Fatalf("fault = %v", r.err)
		}
		if rel.Injected()[relmodel.EvidentFailure] != 1 {
			t.Fatalf("injected = %v", rel.Injected())
		}
	})
}

func TestNonEvidentFailureUsesFaultyHandler(t *testing.T) {
	forEachFace(t, func(t *testing.T, f face) {
		_, ts := startRelease(t, "1.1", FaultPlan{
			Profile: relmodel.Profile{CR: 0, ER: 0, NER: 1},
			Seed:    2,
		})
		var out AddResponse
		if r := f.call(t, ts.URL, "add", AddRequest{A: 2, B: 2}, &out); r.err != nil {
			t.Fatal(r.err)
		}
		// Plausible but wrong: the demo's non-evident failure mode.
		if out.Sum != 5 {
			t.Fatalf("sum = %d, want the off-by-one wrong answer 5", out.Sum)
		}
	})
}

// TestNonEvidentFallbackCorruption: without a Faulty handler an NER
// demand gets the correct answer with a marker element (SOAP) or key
// (JSON) added, still a well-formed reply of its protocol.
func TestNonEvidentFallbackCorruption(t *testing.T) {
	forEachFace(t, func(t *testing.T, f face) {
		behaviours := DemoBehaviours()
		add := behaviours["add"]
		add.Faulty = nil // force the generic corruption path
		behaviours["add"] = add
		rel, err := New(DemoContract("1.1"), behaviours, FaultPlan{Profile: relmodel.Profile{NER: 1}, Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(rel.Handler())
		defer ts.Close()
		var out AddResponse
		r := f.call(t, ts.URL, "add", AddRequest{A: 1, B: 2}, &out)
		if r.err != nil {
			t.Fatal(r.err)
		}
		if !strings.Contains(string(r.payload), "corrupted") {
			t.Fatalf("generic corruption missing: %s", r.payload)
		}
		if out.Sum != 3 {
			t.Fatalf("sum = %d: the corruption is a marker beside the correct answer", out.Sum)
		}
	})
}

func TestInjectionFrequencies(t *testing.T) {
	forEachFace(t, func(t *testing.T, f face) {
		rel, ts := startRelease(t, "1.1", FaultPlan{
			Profile: relmodel.Profile{CR: 0.7, ER: 0.15, NER: 0.15},
			Seed:    4,
		})
		const n = 400
		for i := 0; i < n; i++ {
			f.call(t, ts.URL, "add", AddRequest{A: i, B: i}, nil)
		}
		inj := rel.Injected()
		if inj[relmodel.Correct]+inj[relmodel.EvidentFailure]+inj[relmodel.NonEvidentFailure] != n {
			t.Fatalf("injection accounting: %v", inj)
		}
		if inj[relmodel.Correct] < n/2 || inj[relmodel.EvidentFailure] == 0 || inj[relmodel.NonEvidentFailure] == 0 {
			t.Fatalf("implausible injection counts: %v", inj)
		}
	})
}

func TestGroundTruthHeaders(t *testing.T) {
	forEachFace(t, func(t *testing.T, f face) {
		_, ts := startRelease(t, "2.0", FaultPlan{})
		r := f.call(t, ts.URL, "add", AddRequest{A: 1, B: 2}, nil)
		if got := r.header.Get(VersionHeader); got != "2.0" {
			t.Fatalf("version header = %q", got)
		}
		if got := r.header.Get(oracle.InjectionHeader); got != "CR" {
			t.Fatalf("injection header = %q", got)
		}
	})
}

func TestWSDLEndpoint(t *testing.T) {
	_, ts := startRelease(t, "1.0", FaultPlan{})
	resp, err := http.Get(ts.URL + "/wsdl")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /wsdl = %d", resp.StatusCode)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	text := string(buf[:n])
	for _, want := range []string{"operation1Request", "addRequest", "WebService1"} {
		if !strings.Contains(text, want) {
			t.Errorf("WSDL missing %q", want)
		}
	}
}

func TestHealthz(t *testing.T) {
	forEachFace(t, func(t *testing.T, f face) {
		_, ts := startRelease(t, "1.0", FaultPlan{})
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", f.contentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.Header.Get(VersionHeader) != "1.0" {
			t.Fatalf("healthz = %d %q", resp.StatusCode, resp.Header.Get(VersionHeader))
		}
	})
}

func TestLatencyInjection(t *testing.T) {
	forEachFace(t, func(t *testing.T, f face) {
		_, ts := startRelease(t, "1.0", FaultPlan{MeanLatency: 5 * time.Millisecond, Seed: 5})
		start := time.Now()
		const n = 30
		for i := 0; i < n; i++ {
			if r := f.call(t, ts.URL, "add", AddRequest{A: 1, B: 2}, nil); r.err != nil {
				t.Fatal(r.err)
			}
		}
		// With mean 5 ms over 30 calls the total artificial delay should be
		// clearly measurable (≥ 50 ms even with generous variance).
		if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
			t.Fatalf("latency injection had no effect: %v for %d calls", elapsed, n)
		}
	})
}

// TestAbandonedDemandsAreNotInjected: a consumer that gives up during
// the injected latency was never answered, so its demand is a call but
// no CR/ER/NER reply. With the mean latency far past the consumer's
// timeout, every demand is abandoned.
func TestAbandonedDemandsAreNotInjected(t *testing.T) {
	forEachFace(t, func(t *testing.T, f face) {
		rel, ts := startRelease(t, "1.0", FaultPlan{MeanLatency: 10 * time.Second, Seed: 5})
		client := &http.Client{Timeout: 20 * time.Millisecond}
		const n = 5
		for i := 0; i < n; i++ {
			if _, err := f.send(client, ts.URL, "add", AddRequest{A: i, B: 2}); err == nil {
				t.Fatal("a 20 ms consumer outwaited a 10 s mean latency")
			}
		}
		for deadline := time.Now().Add(2 * time.Second); rel.Calls() < n && time.Now().Before(deadline); {
			time.Sleep(5 * time.Millisecond)
		}
		if got := rel.Calls(); got != n {
			t.Fatalf("Calls() = %d, want %d", got, n)
		}
		if inj := rel.Injected(); len(inj) != 0 {
			t.Fatalf("abandoned demands counted as injected replies: %v", inj)
		}
	})
}

// TestDeterministicInjectionStreams: two releases with one seed label
// their demands with the same sequence of outcomes, whichever face
// each is driven through.
func TestDeterministicInjectionStreams(t *testing.T) {
	plan := FaultPlan{Profile: relmodel.Profile{CR: 0.5, ER: 0.25, NER: 0.25}, Seed: 6}
	for _, pair := range [][2]face{{faces[0], faces[0]}, {faces[1], faces[1]}, {faces[0], faces[1]}} {
		t.Run(pair[0].name+"-"+pair[1].name, func(t *testing.T) {
			_, tsA := startRelease(t, "1.0", plan)
			_, tsB := startRelease(t, "1.0", plan)
			for i := 0; i < 100; i++ {
				ka := pair[0].call(t, tsA.URL, "add", AddRequest{A: i, B: 1}, nil).header.Get(oracle.InjectionHeader)
				kb := pair[1].call(t, tsB.URL, "add", AddRequest{A: i, B: 1}, nil).header.Get(oracle.InjectionHeader)
				if ka == "" || ka != kb {
					t.Fatalf("same seed diverged at call %d: %q vs %q", i, ka, kb)
				}
			}
		})
	}
}

// TestJSONRejections: the JSON face refuses a demand it cannot serve
// before drawing from the injector, so a refused demand is no call.
func TestJSONRejections(t *testing.T) {
	rel, ts := startRelease(t, "1.0", FaultPlan{})
	for _, tc := range []struct {
		name, method, path, body string
		status                   int
	}{
		{"not a POST", http.MethodGet, "/add", "", http.StatusMethodNotAllowed},
		{"unknown operation", http.MethodPost, "/subtract", `{"a":1,"b":2}`, http.StatusBadRequest},
		{"malformed body", http.MethodPost, "/add", `{"a":`, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			res, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer res.Body.Close()
			data, err := io.ReadAll(res.Body)
			if err != nil {
				t.Fatal(err)
			}
			var body struct {
				Error struct {
					Message string `json:"message"`
				} `json:"error"`
			}
			if res.StatusCode != tc.status || json.Unmarshal(data, &body) != nil || body.Error.Message == "" {
				t.Fatalf("reply = %d %s, want %d with an error body", res.StatusCode, data, tc.status)
			}
			if got := res.Header.Get(VersionHeader); got != "1.0" {
				t.Fatalf("version header = %q", got)
			}
		})
	}
	// The malformed body is read before the draw; its decode fails
	// inside the behaviour, so it alone is a call.
	if got := rel.Calls(); got != 1 {
		t.Fatalf("Calls() = %d, want 1", got)
	}
}

// TestContentTypeRouting: one Handler answers a SOAP envelope at "/"
// and a JSON body at "/add", each in its own protocol.
func TestContentTypeRouting(t *testing.T) {
	rel, ts := startRelease(t, "1.0", FaultPlan{})
	for _, f := range faces {
		var out AddResponse
		r := f.call(t, ts.URL, "add", AddRequest{A: 19, B: 23}, &out)
		if r.err != nil || out.Sum != 42 {
			t.Fatalf("%s: reply %d %s, sum %d", f.name, r.status, r.body, out.Sum)
		}
		if ct := r.header.Get("Content-Type"); !f.codec.Accepts(ct) {
			t.Fatalf("%s: Content-Type = %q", f.name, ct)
		}
	}
	if rel.Calls() != 2 {
		t.Fatalf("Calls() = %d, want 2", rel.Calls())
	}
}

// TestBothProtocolsShareOneInjector: SOAP and JSON demands racing on one
// release draw from one stream and one set of counts. Every demand is a
// call, every answered one is counted once under the kind its
// ground-truth header names.
func TestBothProtocolsShareOneInjector(t *testing.T) {
	rel, ts := startRelease(t, "1.0", FaultPlan{
		Profile:     relmodel.Profile{CR: 0.6, ER: 0.2, NER: 0.2},
		MeanLatency: 200 * time.Microsecond,
		Seed:        8,
	})
	const perWorker, workers = 25, 8
	var mu sync.Mutex
	labelled := make(map[string]int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(f face) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r, err := f.send(http.DefaultClient, ts.URL, "add", AddRequest{A: i, B: 1})
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				labelled[r.header.Get(oracle.InjectionHeader)]++
				mu.Unlock()
			}
		}(faces[w%len(faces)])
	}
	wg.Wait()
	if got := rel.Calls(); got != perWorker*workers {
		t.Fatalf("Calls() = %d, want %d", got, perWorker*workers)
	}
	answered := 0
	for kind, n := range rel.Injected() {
		answered += n
		if labelled[kind.String()] != n {
			t.Errorf("%v: %d injected, %d replies so labelled", kind, n, labelled[kind.String()])
		}
	}
	if answered != perWorker*workers {
		t.Fatalf("Σ Injected() = %d, want %d answered", answered, perWorker*workers)
	}
}
