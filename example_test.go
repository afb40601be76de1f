// The paper's worked scenarios as executable documentation: each Example
// runs real releases, mediators and consumers on loopback listeners,
// closes everything it starts, and prints only deterministic facts, so
// `go test` checks what it teaches. Run one with its output:
//
//	go test -run ExampleNewFleet -v .
package wsupgrade_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"wsupgrade"
	"wsupgrade/internal/core"
	"wsupgrade/internal/protocol/jsoncodec"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/wsdl"
)

// must stops an Example at its first unexpected error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// release serves one fault-injected release of the demo service on a
// loopback listener. Closing the server closes every connection it
// accepted.
func release(version string, plan wsupgrade.FaultPlan) *httptest.Server {
	rel, err := wsupgrade.NewRelease(service.DemoContract(version), service.DemoBehaviours(), plan)
	must(err)
	return httptest.NewServer(rel.Handler())
}

// upgradeConfig is the §5.1 white-box campaign every Example runs: the
// old release is the oracle, and the engine switches once criterion 3
// (the new release no worse than the old) holds with 95 % confidence.
func upgradeConfig(releases []wsupgrade.Endpoint, seed uint64) wsupgrade.EngineConfig {
	prior := wsupgrade.ScaledBeta{Alpha: 1, Beta: 3, Upper: 0.3}
	return wsupgrade.EngineConfig{
		Releases:     releases,
		InitialPhase: wsupgrade.PhaseObservation, // deliver old, observe new (§3.1)
		Oracle:       wsupgrade.ReferenceOracle{Release: releases[0].Version},
		Inference: &wsupgrade.WhiteBoxConfig{
			PriorA: prior, PriorB: prior,
			GridA: 50, GridB: 50, GridC: 12, GridAB: 60,
		},
		Policy: &wsupgrade.PolicyConfig{
			Criterion:  wsupgrade.Criterion3{Confidence: 0.95},
			CheckEvery: 50,
			MinDemands: 100,
		},
		ConfidenceTarget: 0.05,
		Seed:             seed,
	}
}

// A managed upgrade (§4–5). The old release 1.0 is dependable; the new
// 1.1 fails less often, but nobody knows that yet. The engine delivers
// 1.0's replies while running 1.1 back-to-back, infers the confidence
// that each release's pfd is at most 0.05, and switches to 1.1 when
// criterion 3 is met. After the switch only 1.1 is called, so the joint
// record — and the confidence — stop moving.
func ExampleNewEngine() {
	oldRel := release("1.0", wsupgrade.FaultPlan{Profile: wsupgrade.OutcomeProfile{CR: 0.95, ER: 0.04, NER: 0.01}, Seed: 1})
	defer oldRel.Close()
	newRel := release("1.1", wsupgrade.FaultPlan{Profile: wsupgrade.OutcomeProfile{CR: 0.99, ER: 0.008, NER: 0.002}, Seed: 2})
	defer newRel.Close()

	cfg := upgradeConfig([]wsupgrade.Endpoint{
		{Version: "1.0", URL: oldRel.URL},
		{Version: "1.1", URL: newRel.URL},
	}, 3)
	// One retry of transient transport failures, and a bound on release
	// response bodies, so a misbehaving release cannot make the proxy
	// buffer an unbounded body.
	cfg.Retry = wsupgrade.RetryPolicy{Attempts: 2, Backoff: 25 * time.Millisecond, MaxResponseBytes: 1 << 20}
	engine, err := wsupgrade.NewEngine(cfg)
	must(err)
	defer engine.Close()
	proxy := httptest.NewServer(engine.Handler())
	defer proxy.Close()

	// The pooled client keeps warm keep-alive connections to the proxy.
	client := &wsupgrade.SOAPClient{URL: proxy.URL, HTTP: wsupgrade.NewPooledClient(5*time.Second, 1)}
	for i := 1; i <= 600; i++ {
		// A demand fails only when both releases fail it; the consumer
		// does not care here.
		_ = client.Call(context.Background(), "add", service.AddRequest{A: i, B: i}, nil)
		if i == 100 || i == 600 {
			rep, err := engine.Confidence("")
			must(err)
			fmt.Printf("after %d demands: phase=%v P(pfd_old<=%.2f)=%.3f P(pfd_new<=%.2f)=%.3f\n",
				i, engine.Phase(), rep.Target, rep.Old, rep.Target, rep.New)
		}
	}
	at, _ := engine.SwitchedAt()
	fmt.Printf("switched to release 1.1 after %d back-to-back demands\n", at)
	for _, v := range []string{"1.0", "1.1"} {
		s, err := engine.Stats(v)
		must(err)
		fmt.Printf("release %s: %d demands, availability %.3f, %d judged failures\n",
			v, s.Demands, s.Availability(), s.JudgedFailures)
	}
	// Output:
	// after 100 demands: phase=new-only P(pfd_old<=0.05)=0.209 P(pfd_new<=0.05)=0.582
	// after 600 demands: phase=new-only P(pfd_old<=0.05)=0.209 P(pfd_new<=0.05)=0.582
	// switched to release 1.1 after 100 back-to-back demands
	// release 1.0: 100 demands, availability 1.000, 6 judged failures
	// release 1.1: 600 demands, availability 1.000, 6 judged failures
}

// §6.2's five ways for a provider to publish its confidence in a
// service: three WSDL transformations (a confidence element in the
// response, which breaks old clients; a dedicated OperationConf
// operation; an "<op>Conf" twin of each operation), a SOAP header a
// protocol handler adds to every response, and the UDDI-style registry
// entry.
func ExampleEngine_publishing() {
	base := service.DemoContract("1.1")
	opt1, err := base.WithConfidenceInResponse("operation1")
	must(err)
	op1, _ := opt1.Operation("operation1")
	fmt.Printf("option 1: operation1 response now ends with element %q (breaks old clients)\n",
		op1.Output[len(op1.Output)-1].Name)
	opt2 := base.WithConfidenceOperation()
	fmt.Printf("option 2: contract gains operation %q (backward compatible)\n",
		opt2.Operations[len(opt2.Operations)-1].Name)
	opt3, err := base.WithConfVariant("operation1")
	must(err)
	fmt.Printf("option 3: contract gains twin operation %q (backward compatible)\n",
		opt3.Operations[len(opt3.Operations)-1].Name)

	// The live mechanisms, over 150 monitored demands of evidence.
	oldRel := release("1.0", wsupgrade.FaultPlan{Profile: wsupgrade.OutcomeProfile{CR: 0.97, ER: 0.02, NER: 0.01}, Seed: 31})
	defer oldRel.Close()
	newRel := release("1.1", wsupgrade.FaultPlan{Profile: wsupgrade.OutcomeProfile{CR: 0.99, ER: 0.005, NER: 0.005}, Seed: 32})
	defer newRel.Close()
	prior := wsupgrade.ScaledBeta{Alpha: 1, Beta: 9, Upper: 0.4}
	engine, err := wsupgrade.NewEngine(wsupgrade.EngineConfig{
		Releases: []wsupgrade.Endpoint{
			{Version: "1.0", URL: oldRel.URL},
			{Version: "1.1", URL: newRel.URL},
		},
		Oracle: wsupgrade.ReferenceOracle{Release: "1.0"},
		Inference: &wsupgrade.WhiteBoxConfig{
			PriorA: prior, PriorB: prior,
			GridA: 50, GridB: 50, GridC: 12, GridAB: 60,
		},
		ConfidenceTarget: 0.05,
		EnableConfOps:    true, // options 2 and 3
		PublishHeader:    true, // the protocol handler
		Contract:         &base,
		Seed:             33,
	})
	must(err)
	defer engine.Close()
	proxy := httptest.NewServer(engine.Handler())
	defer proxy.Close()

	ctx := context.Background()
	client := &wsupgrade.SOAPClient{URL: proxy.URL, HTTP: &http.Client{Timeout: 10 * time.Second}}
	for i := 0; i < 150; i++ {
		_ = client.Call(ctx, "add", service.AddRequest{A: i, B: 1}, nil)
	}

	// Option 2: the dedicated confidence operation.
	var conf struct {
		XMLName    struct{} `xml:"OperationConfResponse"`
		Confidence float64  `xml:"confidence"`
	}
	must(client.Call(ctx, "OperationConf", struct {
		XMLName   struct{} `xml:"OperationConfRequest"`
		Operation string   `xml:"operation"`
	}{Operation: "add"}, &conf))
	fmt.Printf("OperationConf(add) = %.3f\n", conf.Confidence)

	// Option 3: the addConf twin returns the result plus the confidence.
	reply, err := client.CallRaw(ctx, "addConf",
		soap.EnvelopeRaw([]byte(`<addConfRequest><a>20</a><b>22</b></addConfRequest>`)))
	must(err)
	env, err := soap.Decode(reply)
	must(err)
	fmt.Println("addConf response body:", compact(env.BodyXML))

	// The protocol handler: the confidence header on a plain add.
	reply, err = client.CallRaw(ctx, "add",
		soap.EnvelopeRaw([]byte(`<addRequest><a>1</a><b>2</b></addRequest>`)))
	must(err)
	env, err = soap.Decode(reply)
	must(err)
	fmt.Println("response SOAP header:", compact(env.HeaderXML))

	// The UDDI archive: the registry entry with per-operation confidence.
	reg := httptest.NewServer(wsupgrade.NewRegistry())
	defer reg.Close()
	regClient := &wsupgrade.RegistryClient{Base: reg.URL}
	must(regClient.Publish(ctx, engine.RegistryEntry("WebService1", proxy.URL)))
	entry, err := regClient.Get(ctx, "WebService1", "1.1")
	must(err)
	for _, c := range entry.Confidence {
		fmt.Printf("registry entry: confidence[%s] = %.3f\n", c.Name, c.Value)
	}

	// The extended WSDL consumers fetch.
	resp, err := http.Get(proxy.URL + "/wsdl")
	must(err)
	wsdl, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	must(err)
	fmt.Printf("served WSDL declares OperationConf: %v, addConf: %v\n",
		bytes.Contains(wsdl, []byte("OperationConf")), bytes.Contains(wsdl, []byte("addConf")))
	// Output:
	// option 1: operation1 response now ends with element "operation1Conf" (breaks old clients)
	// option 2: contract gains operation "OperationConf" (backward compatible)
	// option 3: contract gains twin operation "operation1Conf" (backward compatible)
	// OperationConf(add) = 0.794
	// addConf response body: <addConfResponse><sum>42</sum><addConf>0.798363</addConf></addConfResponse>
	// response SOAP header: <conf:Confidence xmlns:conf="urn:wsupgrade:extensions" operation="add" value="0.802865"/>
	// registry entry: confidence[operation1] = 0.684
	// registry entry: confidence[add] = 0.803
	// served WSDL declares OperationConf: true, addConf: true
}

// compact collapses XML whitespace for printing.
func compact(xml []byte) string { return strings.Join(strings.Fields(string(xml)), " ") }

// bookTripRequest and bookTripResponse are the travel agency's own
// contract.
type bookTripRequest struct {
	XMLName struct{} `xml:"bookTripRequest"`
	Nights  int      `xml:"nights"`
	Bags    int      `xml:"bags"`
}

type bookTripResponse struct {
	XMLName struct{} `xml:"bookTripResponse"`
	Total   int      `xml:"total"`
}

// The composite of Figs 1 and 4 with §7.2 upgrade notification. A travel
// agency books trips through two third-party components, flights and
// hotels, each upgrading on its own: one fleet listener hosts an upgrade
// unit per component, and the agency's glue is bound to the fleet, never
// to a release, so it does not notice either switch. Then a hotels 1.2
// appears in the registry; its notification deploys 1.2 on the hotels
// unit online, and because that unit had switched, the campaign restarts
// in Observation instead of serving the unvetted 1.2 alone.
func ExampleNewFleet() {
	var releases []*httptest.Server
	defer func() {
		for _, r := range releases {
			r.Close()
		}
	}()
	// Each component's old release visibly fails now and then; the new
	// one is better but unproven.
	component := func(name string, seed uint64) wsupgrade.FleetUnit {
		var eps []wsupgrade.Endpoint
		for i, p := range []wsupgrade.OutcomeProfile{{CR: 0.93, ER: 0.05, NER: 0.02}, {CR: 0.99, ER: 0.008, NER: 0.002}} {
			version := fmt.Sprintf("1.%d", i)
			r := release(version, wsupgrade.FaultPlan{Profile: p, Seed: seed + uint64(i)})
			releases = append(releases, r)
			eps = append(eps, wsupgrade.Endpoint{Version: version, URL: r.URL})
		}
		return wsupgrade.FleetUnit{Name: name, Engine: upgradeConfig(eps, seed)}
	}
	fl, err := wsupgrade.NewFleet(wsupgrade.FleetConfig{
		Units: []wsupgrade.FleetUnit{component("flights", 11), component("hotels", 22)},
	})
	must(err)
	defer fl.Close()
	front := httptest.NewServer(fl)
	defer front.Close()
	fmt.Printf("fleet: hosting %d upgrade units (/flights, /hotels; admin /fleet)\n", len(fl.Units()))
	fl.OnTransition(func(tr wsupgrade.Transition) {
		fmt.Printf("fleet: unit %-8s %v → %v (%v)\n", tr.Unit, tr.From, tr.To, tr.Cause)
	})

	// The registry knows each component's newest release at the fleet,
	// and notifies the fleet of every new one.
	reg := httptest.NewServer(wsupgrade.NewRegistry())
	defer reg.Close()
	regClient := &wsupgrade.RegistryClient{Base: reg.URL}
	ctx := context.Background()
	for _, u := range fl.Units() {
		must(regClient.Publish(ctx, wsupgrade.RegistryEntry{
			Name: u.Service(), Version: "1.1", URL: front.URL + "/" + u.Name(),
		}))
	}
	must(fl.Subscribe(ctx, regClient, front.URL))

	// The travel agency (Fig 1's glue code).
	agency, err := wsupgrade.NewComposite(wsupgrade.Contract{
		Name:            "TravelAgency",
		TargetNamespace: "urn:wsupgrade:travel",
		Version:         "1.0",
		Operations: []wsupgrade.ContractOperation{{
			Name:   "bookTrip",
			Input:  []wsdl.Param{{Name: "nights", Type: "s:int"}, {Name: "bags", Type: "s:int"}},
			Output: []wsdl.Param{{Name: "total", Type: "s:int"}},
		}},
	})
	must(err)
	must(agency.Bind("flights", front.URL+"/flights"))
	must(agency.Bind("hotels", front.URL+"/hotels"))
	must(agency.Handle("bookTrip", func(ctx context.Context, req *soap.Request, deps *wsupgrade.CompositeDeps) (interface{}, error) {
		var in bookTripRequest
		if err := req.Decode(&in); err != nil {
			return nil, err
		}
		var flight, hotel service.AddResponse
		// The fare is 100 plus 25 per bag; the room 80 a night plus 30 tax.
		if err := deps.Call(ctx, "flights", "add", service.AddRequest{A: 100, B: 25 * in.Bags}, &flight); err != nil {
			return nil, err
		}
		if err := deps.Call(ctx, "hotels", "add", service.AddRequest{A: 80 * in.Nights, B: 30}, &hotel); err != nil {
			return nil, err
		}
		return bookTripResponse{Total: flight.Sum + hotel.Sum}, nil
	}))
	site := httptest.NewServer(agency.Handler())
	defer site.Close()

	// Consumers book until both components have switched.
	client := &wsupgrade.SOAPClient{URL: site.URL, HTTP: wsupgrade.NewPooledClient(10*time.Second, 1)}
	booked, failed := 0, 0
	for i := 1; i <= 800; i++ {
		nights, bags := 1+i%7, i%3
		var out bookTripResponse
		err := client.Call(ctx, "bookTrip", bookTripRequest{Nights: nights, Bags: bags}, &out)
		// A failure is evident on both releases of a component, or a
		// non-evident one that adjudication let through (§5.2).
		if err != nil || out.Total != 100+25*bags+80*nights+30 {
			failed++
			continue
		}
		booked++
		if i >= 300 && bothSwitched(fl) {
			break
		}
	}
	fmt.Printf("travel-agency: %d trips booked, %d demands failed\n", booked, failed)
	for _, st := range fl.Status() {
		fmt.Printf("fleet: unit %-8s phase=%v switchedAt=%d confidence=%.3f releases=%d\n",
			st.Unit, st.Phase, st.SwitchedAt, *st.Confidence, len(st.Releases))
	}

	// A new hotels release appears in the registry.
	hotels12 := release("1.2", wsupgrade.FaultPlan{Profile: wsupgrade.OutcomeProfile{CR: 0.999, ER: 0.001}, Seed: 99})
	releases = append(releases, hotels12)
	must(regClient.Publish(ctx, wsupgrade.RegistryEntry{Name: "hotels", Version: "1.2", URL: hotels12.URL}))
	hotels, err := fl.Unit("hotels")
	must(err)
	rels := hotels.Engine().Releases()
	fmt.Printf("registry: published hotels 1.2 — unit now deploys %d releases (newest %s), phase %v\n",
		len(rels), rels[len(rels)-1].Version, hotels.Engine().Phase())
	// Output:
	// fleet: hosting 2 upgrade units (/flights, /hotels; admin /fleet)
	// fleet: unit hotels   observation → new-only (policy)
	// fleet: unit flights  observation → new-only (policy)
	// travel-agency: 286 trips booked, 14 demands failed
	// fleet: unit flights  phase=new-only switchedAt=300 confidence=0.675 releases=2
	// fleet: unit hotels   phase=new-only switchedAt=100 confidence=0.714 releases=2
	// fleet: unit hotels   new-only → observation (topology)
	// registry: published hotels 1.2 — unit now deploys 3 releases (newest 1.2), phase observation
}

func bothSwitched(fl *wsupgrade.Fleet) bool {
	for _, u := range fl.Units() {
		if u.Engine().Phase() != wsupgrade.PhaseNewOnly {
			return false
		}
	}
	return true
}

// The same engine behind a REST/JSON face (DESIGN.md §5). A unit with the
// JSON codec takes JSON bodies at /api/<operation> and mediates them
// exactly as a SOAP unit does; the published confidence rides the
// X-Wsupgrade-Confidence response header. A demand whose Content-Type
// contradicts the unit's protocol is refused with 415 before it can be
// charged to any release.
func ExampleNewFleet_json() {
	var eps []wsupgrade.Endpoint
	for i, p := range []wsupgrade.OutcomeProfile{{CR: 0.93, ER: 0.05, NER: 0.02}, {CR: 0.99, ER: 0.008, NER: 0.002}} {
		version := fmt.Sprintf("1.%d", i)
		rel, err := service.New(service.DemoContract(version), service.DemoBehaviours(), wsupgrade.FaultPlan{Profile: p, Seed: 41 + uint64(i)})
		must(err)
		r := httptest.NewServer(rel.Handler())
		defer r.Close()
		eps = append(eps, wsupgrade.Endpoint{Version: version, URL: r.URL})
	}
	cfg := upgradeConfig(eps, 7)
	cfg.Codec = jsoncodec.Default
	cfg.Oracle = wsupgrade.ReferenceOracle{Release: "1.0", Codec: jsoncodec.Default}
	cfg.PublishHeader = true
	fl, err := wsupgrade.NewFleet(wsupgrade.FleetConfig{Units: []wsupgrade.FleetUnit{{Name: "api", Engine: cfg}}})
	must(err)
	defer fl.Close()
	gateway := httptest.NewServer(fl)
	defer gateway.Close()
	fl.OnTransition(func(tr wsupgrade.Transition) {
		fmt.Printf("gateway: unit %s %v → %v (%v)\n", tr.Unit, tr.From, tr.To, tr.Cause)
	})

	ok, failed := 0, 0
	var confidence string
	for i := 1; i <= 600; i++ {
		body, _ := json.Marshal(service.AddRequest{A: i, B: 2 * i})
		resp, err := http.Post(gateway.URL+"/api/add", "application/json", bytes.NewReader(body))
		must(err)
		var out service.AddResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if c := resp.Header.Get(core.ConfidenceHeader); c != "" {
			confidence = c
		}
		// Failed: evident on both releases, or a §5.2 escape.
		if resp.StatusCode != http.StatusOK || err != nil || out.Sum != 3*i {
			failed++
			continue
		}
		ok++
	}
	fmt.Printf("consumer: %d demands adjudicated OK, %d failed; published confidence %s\n", ok, failed, confidence)

	// A SOAP envelope aimed at the JSON unit never reaches a release.
	resp, err := http.Post(gateway.URL+"/api/add", "text/xml", strings.NewReader(`<Envelope/>`))
	must(err)
	resp.Body.Close()
	fmt.Printf("gateway: text/xml demand at the JSON unit → HTTP %d\n", resp.StatusCode)
	st := fl.Status()[0]
	fmt.Printf("gateway: unit %s phase=%v confidence=%.3f releases=%d\n",
		st.Unit, st.Phase, *st.Confidence, len(st.Releases))
	// Output:
	// gateway: unit api observation → new-only (policy)
	// consumer: 592 demands adjudicated OK, 8 failed; published confidence 0.776266
	// gateway: text/xml demand at the JSON unit → HTTP 415
	// gateway: unit api phase=new-only confidence=0.776 releases=2
}
