// Publishing the confidence in a Web Service (§6.2).
//
// The paper discusses several ways a provider can expose its confidence
// in a service's correctness. This example demonstrates all of them on a
// live deployment:
//
//  1. WSDL option 1 — the operation response element itself is extended
//     with a confidence value (not backward compatible; shown as a
//     contract diff).
//  2. WSDL option 2 — a dedicated OperationConf operation.
//  3. WSDL option 3 — a backward-compatible "<op>Conf" variant whose
//     response carries the result plus the confidence.
//  4. Protocol handlers — a confidence SOAP header transparently added
//     to every response.
//  5. The UDDI archive — confidence values attached to the registry
//     entry.
//
// Run with: go run ./examples/publishing
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"wsupgrade"
	"wsupgrade/internal/oracle"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close() }, nil
}

func run() error {
	ctx := context.Background()

	// --- Contract-level view (the WSDL transformations) --------------------
	base := service.DemoContract("1.1")
	fmt.Println("== WSDL mechanisms ==")

	opt1, err := base.WithConfidenceInResponse("operation1")
	if err != nil {
		return err
	}
	op1, _ := opt1.Operation("operation1")
	fmt.Printf("option 1: operation1 response now ends with element %q (breaks old clients)\n",
		op1.Output[len(op1.Output)-1].Name)

	opt2 := base.WithConfidenceOperation()
	fmt.Printf("option 2: contract gains operation %q (backward compatible)\n",
		opt2.Operations[len(opt2.Operations)-1].Name)

	opt3, err := base.WithConfVariant("operation1")
	if err != nil {
		return err
	}
	fmt.Printf("option 3: contract gains twin operation %q (backward compatible)\n",
		opt3.Operations[len(opt3.Operations)-1].Name)

	// --- Live deployment ------------------------------------------------------
	oldRel, err := wsupgrade.NewRelease(service.DemoContract("1.0"), service.DemoBehaviours(),
		wsupgrade.FaultPlan{Profile: relmodel.Profile{CR: 0.97, ER: 0.02, NER: 0.01}, Seed: 31})
	if err != nil {
		return err
	}
	newRel, err := wsupgrade.NewRelease(service.DemoContract("1.1"), service.DemoBehaviours(),
		wsupgrade.FaultPlan{Profile: relmodel.Profile{CR: 0.99, ER: 0.005, NER: 0.005}, Seed: 32})
	if err != nil {
		return err
	}
	oldURL, stopOld, err := serve(oldRel.Handler())
	if err != nil {
		return err
	}
	defer stopOld()
	newURL, stopNew, err := serve(newRel.Handler())
	if err != nil {
		return err
	}
	defer stopNew()

	prior := wsupgrade.ScaledBeta{Alpha: 1, Beta: 9, Upper: 0.4}
	contract := service.DemoContract("1.1")
	engine, err := wsupgrade.NewEngine(wsupgrade.EngineConfig{
		Releases: []wsupgrade.Endpoint{
			{Version: "1.0", URL: oldURL},
			{Version: "1.1", URL: newURL},
		},
		Oracle: oracle.Reference{Release: "1.0"},
		Inference: &wsupgrade.WhiteBoxConfig{
			PriorA: prior, PriorB: prior,
			GridA: 50, GridB: 50, GridC: 12, GridAB: 60,
		},
		ConfidenceTarget: 0.05,
		EnableConfOps:    true, // options 2 and 3
		PublishHeader:    true, // protocol-handler mechanism
		Contract:         &contract,
		Seed:             33,
	})
	if err != nil {
		return err
	}
	defer engine.Close()
	engineURL, stopEngine, err := serve(engine.Handler())
	if err != nil {
		return err
	}
	defer stopEngine()

	client := &wsupgrade.SOAPClient{URL: engineURL, HTTP: &http.Client{Timeout: 10 * time.Second}}
	// Build up some operational evidence first.
	for i := 0; i < 150; i++ {
		_ = client.Call(ctx, "add", service.AddRequest{A: i, B: 1}, nil)
	}
	fmt.Println("\n== live mechanisms (after 150 monitored demands) ==")

	// Option 2: the dedicated confidence operation.
	var conf struct {
		XMLName    struct{} `xml:"OperationConfResponse"`
		Confidence float64  `xml:"confidence"`
	}
	if err := client.Call(ctx, "OperationConf", struct {
		XMLName   struct{} `xml:"OperationConfRequest"`
		Operation string   `xml:"operation"`
	}{Operation: "add"}, &conf); err != nil {
		return err
	}
	fmt.Printf("OperationConf(add) = %.3f\n", conf.Confidence)

	// Option 3: the addConf twin returns the result plus the confidence.
	env := soap.EnvelopeRaw([]byte(`<addConfRequest><a>20</a><b>22</b></addConfRequest>`))
	respEnv, err := client.CallRaw(ctx, "addConf", env)
	if err != nil {
		return err
	}
	fmt.Println("addConf response body:", compact(extractBody(respEnv)))

	// Protocol handler: the confidence header on a plain add call.
	respEnv, err = client.CallRaw(ctx, "add",
		soap.EnvelopeRaw([]byte(`<addRequest><a>1</a><b>2</b></addRequest>`)))
	if err != nil {
		return err
	}
	parsed, err := soap.Decode(respEnv)
	if err != nil {
		return err
	}
	fmt.Println("response SOAP header:", compact(string(parsed.HeaderXML)))

	// UDDI archive: the registry entry with per-operation confidence.
	regURL, stopReg, err := serve(wsupgrade.NewRegistry())
	if err != nil {
		return err
	}
	defer stopReg()
	reg := &wsupgrade.RegistryClient{Base: regURL}
	if err := reg.Publish(ctx, engine.RegistryEntry("WebService1", engineURL)); err != nil {
		return err
	}
	entry, err := reg.Get(ctx, "WebService1", "1.1")
	if err != nil {
		return err
	}
	for _, c := range entry.Confidence {
		fmt.Printf("registry entry: confidence[%s] = %.3f\n", c.Name, c.Value)
	}

	// The extended WSDL consumers can fetch.
	resp, err := http.Get(engineURL + "/wsdl")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	buf := make([]byte, 1<<17)
	n, _ := resp.Body.Read(buf)
	text := string(buf[:n])
	fmt.Printf("served WSDL declares OperationConf: %v, addConf: %v\n",
		strings.Contains(text, "OperationConf"), strings.Contains(text, "addConf"))
	return nil
}

func extractBody(envelope []byte) string {
	p, err := soap.Decode(envelope)
	if err != nil {
		return string(envelope)
	}
	return string(p.BodyXML)
}

func compact(s string) string {
	return strings.Join(strings.Fields(s), " ")
}
