package composite

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wsupgrade/internal/registry"
	"wsupgrade/internal/relmodel"
	"wsupgrade/internal/service"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/wsdl"
)

// compositeContract is a composite WS with one operation implemented by
// calling the demo component twice (Fig 1's Composite Web-Service).
func compositeContract() wsdl.Contract {
	return wsdl.Contract{
		Name:            "CompositeWS",
		TargetNamespace: "urn:wsupgrade:composite",
		Version:         "1.0",
		Operations: []wsdl.Operation{
			{
				Name:   "sumTwice",
				Input:  []wsdl.Param{{Name: "a", Type: "s:int"}, {Name: "b", Type: "s:int"}},
				Output: []wsdl.Param{{Name: "total", Type: "s:int"}},
			},
		},
	}
}

type sumTwiceRequest struct {
	XMLName struct{} `xml:"sumTwiceRequest"`
	A       int      `xml:"a"`
	B       int      `xml:"b"`
}

type sumTwiceResponse struct {
	XMLName struct{} `xml:"sumTwiceResponse"`
	Total   int      `xml:"total"`
}

func startComponent(t *testing.T, version string) *httptest.Server {
	t.Helper()
	rel, err := service.New(service.DemoContract(version), service.DemoBehaviours(), service.FaultPlan{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rel.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func buildComposite(t *testing.T) *Service {
	t.Helper()
	svc, err := New(compositeContract())
	if err != nil {
		t.Fatal(err)
	}
	err = svc.Handle("sumTwice", func(ctx context.Context, req *soap.Request, deps *Deps) (interface{}, error) {
		var in sumTwiceRequest
		if err := req.Decode(&in); err != nil {
			return nil, soap.ClientFault(err.Error())
		}
		var first service.AddResponse
		if err := deps.Call(ctx, "ws1", "add", service.AddRequest{A: in.A, B: in.B}, &first); err != nil {
			return nil, err
		}
		var second service.AddResponse
		if err := deps.Call(ctx, "ws1", "add", service.AddRequest{A: first.Sum, B: first.Sum}, &second); err != nil {
			return nil, err
		}
		return sumTwiceResponse{Total: second.Sum}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func TestCompositeGlueCallsComponent(t *testing.T) {
	comp := startComponent(t, "1.0")
	svc := buildComposite(t)
	if err := svc.Bind("ws1", comp.URL); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := &soap.Client{URL: ts.URL, HTTP: &http.Client{Timeout: 5 * time.Second}}
	var out sumTwiceResponse
	if err := c.Call(context.Background(), "sumTwice", sumTwiceRequest{A: 2, B: 3}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Total != 10 { // (2+3) + (5+5) composition
		t.Fatalf("total = %d, want 10", out.Total)
	}
}

func TestValidationErrors(t *testing.T) {
	if _, err := New(wsdl.Contract{}); err == nil {
		t.Fatal("empty contract accepted")
	}
	svc := buildComposite(t)
	if err := svc.Handle("ghost", nil); !errors.Is(err, ErrBadComposite) {
		t.Fatalf("ghost operation: %v", err)
	}
	if err := svc.Bind("", "http://x"); !errors.Is(err, ErrBadComposite) {
		t.Fatalf("empty binding: %v", err)
	}
}

func TestUnboundComponentFails(t *testing.T) {
	svc := buildComposite(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := &soap.Client{URL: ts.URL}
	err := c.Call(context.Background(), "sumTwice", sumTwiceRequest{A: 1, B: 1}, nil)
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want fault", err)
	}
	if !strings.Contains(f.String, "unknown component") {
		t.Fatalf("fault = %+v", f)
	}
}

// Rebinding online: the same glue transparently reaches a different
// deployment (e.g. the upgrade middleware of Fig 4).
func TestRebindOnline(t *testing.T) {
	comp1 := startComponent(t, "1.0")
	svc := buildComposite(t)
	if err := svc.Bind("ws1", comp1.URL); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := &soap.Client{URL: ts.URL}
	if err := c.Call(context.Background(), "sumTwice", sumTwiceRequest{A: 1, B: 1}, nil); err != nil {
		t.Fatal(err)
	}
	// Point the binding at a dead endpoint: calls must now fail...
	if err := svc.Bind("ws1", "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(context.Background(), "sumTwice", sumTwiceRequest{A: 1, B: 1}, nil); err == nil {
		t.Fatal("dead rebinding still served")
	}
	// ...and rebinding back heals it.
	if err := svc.Bind("ws1", comp1.URL); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(context.Background(), "sumTwice", sumTwiceRequest{A: 1, B: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if got := svc.Components(); len(got) != 1 || got[0] != "ws1" {
		t.Fatalf("components = %v", got)
	}
}

func TestComponentFaultPropagates(t *testing.T) {
	// A component that always faults.
	rel, err := service.New(service.DemoContract("1.0"), service.DemoBehaviours(),
		service.FaultPlan{Profile: faultyProfile(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	comp := httptest.NewServer(rel.Handler())
	defer comp.Close()
	svc := buildComposite(t)
	if err := svc.Bind("ws1", comp.URL); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := &soap.Client{URL: ts.URL}
	err = c.Call(context.Background(), "sumTwice", sumTwiceRequest{A: 1, B: 1}, nil)
	var f *soap.Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want propagated fault", err)
	}
}

func TestWSDLAndHealth(t *testing.T) {
	svc := buildComposite(t)
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/wsdl")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1<<16)
	n, _ := resp.Body.Read(buf)
	resp.Body.Close()
	if !strings.Contains(string(buf[:n]), "sumTwiceRequest") {
		t.Fatal("composite WSDL missing its operation")
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
}

// §7.2 end to end: registry notification reaches the composite's
// OnUpgrade hook.
func TestUpgradeNotificationFlow(t *testing.T) {
	svc := buildComposite(t)
	var mu sync.Mutex
	var got []registry.Entry
	svc.OnUpgrade(func(e registry.Entry) {
		mu.Lock()
		defer mu.Unlock()
		got = append(got, e)
	})
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	reg := registry.NewServer()
	regTS := httptest.NewServer(reg)
	defer regTS.Close()
	regClient := &registry.Client{Base: regTS.URL}
	ctx := context.Background()

	if err := regClient.Publish(ctx, registry.Entry{Name: "WebService1", Version: "1.0", URL: "http://node1/a"}); err != nil {
		t.Fatal(err)
	}
	if err := regClient.Subscribe(ctx, "WebService1", ts.URL+"/notify"); err != nil {
		t.Fatal(err)
	}
	if err := regClient.Publish(ctx, registry.Entry{Name: "WebService1", Version: "1.1", URL: "http://node1/b"}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 1 || got[0].Version != "1.1" {
		t.Fatalf("notifications = %+v", got)
	}
}

func TestResolveNewest(t *testing.T) {
	comp := startComponent(t, "1.1")
	reg := registry.NewServer()
	regTS := httptest.NewServer(reg)
	defer regTS.Close()
	regClient := &registry.Client{Base: regTS.URL}
	ctx := context.Background()
	if err := regClient.Publish(ctx, registry.Entry{Name: "WebService1", Version: "1.0", URL: "http://127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	if err := regClient.Publish(ctx, registry.Entry{Name: "WebService1", Version: "1.1", URL: comp.URL}); err != nil {
		t.Fatal(err)
	}

	svc := buildComposite(t)
	if err := svc.ResolveNewest(ctx, regClient, "ws1", "WebService1"); err != nil {
		t.Fatal(err)
	}
	url, err := (&Deps{svc: svc}).Endpoint("ws1")
	if err != nil {
		t.Fatal(err)
	}
	if url != comp.URL {
		t.Fatalf("resolved %s, want newest %s", url, comp.URL)
	}
	if err := svc.ResolveNewest(ctx, regClient, "ws1", "Ghost"); err == nil {
		t.Fatal("resolving unknown service succeeded")
	}
}

func TestNotificationHandlerValidation(t *testing.T) {
	svc := buildComposite(t)
	ts := httptest.NewServer(svc.NotificationHandler())
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET = %d", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL, "text/xml", strings.NewReader("not xml"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage POST = %d", resp.StatusCode)
	}
}

func faultyProfile() relmodel.Profile {
	return relmodel.Profile{ER: 1}
}

// Fig 1's exact shape: a composite WS depending on two component WSs
// provided by third parties, each independently rebindable.
func TestTwoComponentComposite(t *testing.T) {
	ws1 := startComponent(t, "1.0")
	ws2 := startComponent(t, "2.0")

	contract := wsdl.Contract{
		Name:            "CompositeWS",
		TargetNamespace: "urn:wsupgrade:composite",
		Version:         "1.0",
		Operations: []wsdl.Operation{{
			Name:   "combine",
			Input:  []wsdl.Param{{Name: "a", Type: "s:int"}, {Name: "b", Type: "s:int"}},
			Output: []wsdl.Param{{Name: "total", Type: "s:int"}},
		}},
	}
	svc, err := New(contract)
	if err != nil {
		t.Fatal(err)
	}
	err = svc.Handle("combine", func(ctx context.Context, req *soap.Request, deps *Deps) (interface{}, error) {
		var in struct {
			XMLName struct{} `xml:"combineRequest"`
			A       int      `xml:"a"`
			B       int      `xml:"b"`
		}
		if err := req.Decode(&in); err != nil {
			return nil, soap.ClientFault(err.Error())
		}
		// Glue across both components: ws1 computes a+b, ws2 doubles it.
		var first service.AddResponse
		if err := deps.Call(ctx, "ws1", "add", service.AddRequest{A: in.A, B: in.B}, &first); err != nil {
			return nil, err
		}
		var second service.AddResponse
		if err := deps.Call(ctx, "ws2", "add", service.AddRequest{A: first.Sum, B: first.Sum}, &second); err != nil {
			return nil, err
		}
		return struct {
			XMLName struct{} `xml:"combineResponse"`
			Total   int      `xml:"total"`
		}{Total: second.Sum}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Bind("ws1", ws1.URL); err != nil {
		t.Fatal(err)
	}
	if err := svc.Bind("ws2", ws2.URL); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	c := &soap.Client{URL: ts.URL}
	var out struct {
		XMLName struct{} `xml:"combineResponse"`
		Total   int      `xml:"total"`
	}
	if err := c.Call(context.Background(), "combine", struct {
		XMLName struct{} `xml:"combineRequest"`
		A       int      `xml:"a"`
		B       int      `xml:"b"`
	}{A: 3, B: 4}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Total != 14 {
		t.Fatalf("total = %d, want 14", out.Total)
	}
	if got := svc.Components(); len(got) != 2 {
		t.Fatalf("components = %v", got)
	}
	// One component failing takes only the operations that need it down;
	// here combine needs both, so it faults — but rebinding ws2 alone
	// restores service without touching ws1.
	if err := svc.Bind("ws2", "http://127.0.0.1:1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(context.Background(), "combine", struct {
		XMLName struct{} `xml:"combineRequest"`
		A       int      `xml:"a"`
		B       int      `xml:"b"`
	}{A: 1, B: 1}, nil); err == nil {
		t.Fatal("dead ws2 did not surface")
	}
	if err := svc.Bind("ws2", ws2.URL); err != nil {
		t.Fatal(err)
	}
	if err := c.Call(context.Background(), "combine", struct {
		XMLName struct{} `xml:"combineRequest"`
		A       int      `xml:"a"`
		B       int      `xml:"b"`
	}{A: 1, B: 1}, nil); err != nil {
		t.Fatal(err)
	}
}
