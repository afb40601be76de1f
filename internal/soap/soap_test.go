package soap

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

type addRequest struct {
	XMLName struct{} `xml:"AddRequest"`
	A       int      `xml:"a"`
	B       int      `xml:"b"`
}

type addResponse struct {
	XMLName struct{} `xml:"AddResponse"`
	Sum     int      `xml:"sum"`
}

func newCalcServer(t *testing.T) *Server {
	t.Helper()
	s := NewServer()
	s.Handle("AddRequest", func(ctx context.Context, req *Request) (interface{}, error) {
		var in addRequest
		if err := req.Decode(&in); err != nil {
			return nil, ClientFault(err.Error())
		}
		return addResponse{Sum: in.A + in.B}, nil
	})
	s.Handle("BoomRequest", func(ctx context.Context, req *Request) (interface{}, error) {
		return nil, errors.New("internal exploded")
	})
	s.Handle("FaultRequest", func(ctx context.Context, req *Request) (interface{}, error) {
		return nil, &Fault{Code: "soap:Client", String: "bad moon", Actor: "urn:calc", Detail: "rising"}
	})
	return s
}

func TestRoundTrip(t *testing.T) {
	ts := httptest.NewServer(newCalcServer(t))
	defer ts.Close()
	c := &Client{URL: ts.URL, HTTP: &http.Client{Timeout: 5 * time.Second}}
	var out addResponse
	if err := c.Call(context.Background(), "AddRequest", addRequest{A: 2, B: 40}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Sum != 42 {
		t.Fatalf("sum = %d, want 42", out.Sum)
	}
}

type boomRequest struct {
	XMLName struct{} `xml:"BoomRequest"`
}

type faultRequest struct {
	XMLName struct{} `xml:"FaultRequest"`
}

func TestServerFaultFromPlainError(t *testing.T) {
	ts := httptest.NewServer(newCalcServer(t))
	defer ts.Close()
	c := &Client{URL: ts.URL}
	err := c.Call(context.Background(), "BoomRequest", boomRequest{}, nil)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if f.Code != "soap:Server" || !strings.Contains(f.String, "internal exploded") {
		t.Fatalf("fault = %+v", f)
	}
}

func TestCustomFaultPreserved(t *testing.T) {
	ts := httptest.NewServer(newCalcServer(t))
	defer ts.Close()
	c := &Client{URL: ts.URL}
	err := c.Call(context.Background(), "FaultRequest", faultRequest{}, nil)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *Fault", err)
	}
	if f.Code != "soap:Client" || f.String != "bad moon" || f.Actor != "urn:calc" || f.Detail != "rising" {
		t.Fatalf("fault fields lost: %+v", f)
	}
}

func TestUnknownOperation(t *testing.T) {
	ts := httptest.NewServer(newCalcServer(t))
	defer ts.Close()
	c := &Client{URL: ts.URL}
	err := c.Call(context.Background(), "NopeRequest", struct {
		XMLName struct{} `xml:"NopeRequest"`
	}{}, nil)
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want fault", err)
	}
	if !strings.Contains(f.String, "no such operation") {
		t.Fatalf("fault = %+v", f)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts := httptest.NewServer(newCalcServer(t))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d", resp.StatusCode)
	}
}

func TestMalformedEnvelopeRejected(t *testing.T) {
	ts := httptest.NewServer(newCalcServer(t))
	defer ts.Close()
	resp, err := http.Post(ts.URL, ContentType, strings.NewReader("<not-soap/>"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 with fault", resp.StatusCode)
	}
}

func TestOperationsSorted(t *testing.T) {
	s := newCalcServer(t)
	ops := s.Operations()
	want := []string{"AddRequest", "BoomRequest", "FaultRequest"}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("ops = %v, want %v", ops, want)
		}
	}
}

func TestParseExtractsPieces(t *testing.T) {
	env := EnvelopeRaw([]byte(`<ns:Op1Request xmlns:ns="urn:x"><p>1</p></ns:Op1Request>`),
		HeaderItem(`<h:Token xmlns:h="urn:h">abc</h:Token>`))
	p, err := Decode(env)
	if err != nil {
		t.Fatal(err)
	}
	if p.Operation != "Op1Request" {
		t.Fatalf("operation = %+v", p.Operation)
	}
	if !strings.Contains(string(p.HeaderXML), "Token") {
		t.Fatalf("header = %q", p.HeaderXML)
	}
	if p.Fault != nil {
		t.Fatal("unexpected fault")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"not xml":         "hello",
		"wrong namespace": `<Envelope xmlns="urn:wrong"><Body><X/></Body></Envelope>`,
		"empty body":      string(EnvelopeRaw(nil)),
	}
	for name, in := range cases {
		if _, err := Decode([]byte(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestParseFaultEnvelope(t *testing.T) {
	env := FaultEnvelope(&Fault{Code: "soap:Server", String: "x < y", Detail: "d"})
	p, err := Decode(env)
	if err != nil {
		t.Fatal(err)
	}
	if p.Fault == nil {
		t.Fatal("fault not detected")
	}
	if p.Fault.String != "x < y" {
		t.Fatalf("fault string = %q (escaping broken)", p.Fault.String)
	}
}

func TestFaultError(t *testing.T) {
	f := ServerFault("downstream died")
	if !strings.Contains(f.Error(), "soap:Server") || !strings.Contains(f.Error(), "downstream died") {
		t.Fatalf("Error() = %q", f.Error())
	}
	if ClientFault("x").Code != "soap:Client" {
		t.Fatal("ClientFault code wrong")
	}
}

// canonicalEqualCases are pairs that differ in bytes and not in canonical
// form; canonicalDistinctCases differ in both. They also seed
// FuzzEqualCanonical.
var canonicalEqualCases = []struct{ a, b string }{
	{
		`<r><x>1</x><y>2</y></r>`,
		"<r>\n  <x>1</x>\n  <y>2</y>\n</r>",
	},
	{
		`<r b="2" a="1"/>`,
		`<r a="1" b="2"></r>`,
	},
	{
		`<n:r xmlns:n="urn:x"><n:c/></n:r>`,
		`<m:r xmlns:m="urn:x"><m:c/></m:r>`,
	},
	{
		`<r><!-- comment --><x>1</x></r>`,
		`<r><x>1</x></r>`,
	},
	// One run of text in canonical form, two tokens against one: the
	// comparison is of byte streams, not of token sequences.
	{`<r>a<!--c-->b</r>`, `<r>ab</r>`},
	{`<r>a<?pi x?>b</r>`, `<r>ab</r>`},
	{`<r><![CDATA[a<b & c]]></r>`, `<r>a&lt;b &amp; c</r>`},
	{`<r>&#65;&#x42;&quot;&apos;</r>`, `<r>AB"'</r>`},
	{`<r xmlns="urn:x"><c xmlns="urn:x" q:k="v" xmlns:q="urn:q"/></r>`, `<p:r xmlns:p="urn:x"><p:c z:k="v" xmlns:z="urn:q"/></p:r>`},
	{"  <r> <x/> \t</r>\n", `<r><x/></r>`},
	{`<r> </r>`, `<r></r>`},
	{`<?xml version="1.0"?><r c="3" b="2" a="1" xmlns:n="urn:n" n:a="0"/>`, `<r a="1" b="2" c="3" xmlns:m="urn:n" m:a="0"/>`},
	{`<a/><b/>`, `<a></a> <b></b>`},
}

var canonicalDistinctCases = []struct{ a, b string }{
	{`<r>1</r>`, `<r>2</r>`},
	{`<r><x/></r>`, `<r><y/></r>`},
	{`<r a="1"/>`, `<r a="2"/>`},
	{`<r>a b</r>`, `<r>ab</r>`},
	{`<n:r xmlns:n="urn:x"/>`, `<n:r xmlns:n="urn:y"/>`},
	// Whitespace beside a comment is text once the comment is gone.
	{`<r>a <!--c--> b</r>`, `<r>a b</r>`},
	{`<r a="1" b="2"/>`, `<r a="1"/>`},
	// A strict prefix, of the canonical form and of the bytes.
	{`<a/>`, `<a/><b/>`},
	{`<r><a>1</a>`, `<r><a>1</a></r>`},
	// Unparsable after the first difference, and after none at all:
	// raw bytes decide, and they differ.
	{`<r><a>1</a><b></r>`, `<r><a>2</a><b></r>`},
	{`<r><a>1</a><b></r>`, `<r ><a>1</a><b></r>`},
	{`<r>1</r>`, `<r>1</r><`},
}

func TestCanonicalizeEquivalences(t *testing.T) {
	for i, c := range canonicalEqualCases {
		if !EqualCanonical([]byte(c.a), []byte(c.b)) {
			ca, _ := Canonicalize([]byte(c.a))
			cb, _ := Canonicalize([]byte(c.b))
			t.Errorf("case %d: not equal:\n%s\n%s", i, ca, cb)
		}
	}
}

func TestCanonicalizeDistinguishesContent(t *testing.T) {
	for i, c := range canonicalDistinctCases {
		if EqualCanonical([]byte(c.a), []byte(c.b)) {
			t.Errorf("case %d: %q and %q compared equal", i, c.a, c.b)
		}
	}
}

func TestEqualCanonicalFallsBackOnGarbage(t *testing.T) {
	if !EqualCanonical([]byte("raw<"), []byte("raw<")) {
		t.Fatal("identical unparsable fragments should compare equal")
	}
	if EqualCanonical([]byte("raw<"), []byte("other<")) {
		t.Fatal("different unparsable fragments should differ")
	}
}

func TestInjectElement(t *testing.T) {
	out, err := InjectElement(
		[]byte(`<Op1Response><Op1Result>hi</Op1Result></Op1Response>`),
		[]byte(`<Op1Conf>0.99</Op1Conf>`))
	if err != nil {
		t.Fatal(err)
	}
	want := `<Op1Response><Op1Result>hi</Op1Result><Op1Conf>0.99</Op1Conf></Op1Response>`
	if string(out) != want {
		t.Fatalf("got %s", out)
	}
}

func TestInjectElementSelfClosing(t *testing.T) {
	out, err := InjectElement([]byte(`<Empty/>`), []byte(`<C>1</C>`))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != `<Empty><C>1</C></Empty>` {
		t.Fatalf("got %s", out)
	}
}

func TestInjectElementErrors(t *testing.T) {
	if _, err := InjectElement(nil, []byte(`<c/>`)); err == nil {
		t.Fatal("nil fragment accepted")
	}
	if _, err := InjectElement([]byte(`<unclosed>`), []byte(`<c/>`)); err == nil {
		t.Fatal("unclosed fragment accepted")
	}
}

func TestClientTransportErrors(t *testing.T) {
	c := &Client{URL: "http://127.0.0.1:1", HTTP: &http.Client{Timeout: 200 * time.Millisecond}}
	err := c.Call(context.Background(), "AddRequest", addRequest{}, nil)
	if err == nil {
		t.Fatal("dead endpoint did not error")
	}
	var f *Fault
	if errors.As(err, &f) {
		t.Fatal("transport error misreported as SOAP fault")
	}
}

func TestClientContextCancellation(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(2 * time.Second)
	}))
	defer slow.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	c := &Client{URL: slow.URL}
	start := time.Now()
	err := c.Call(ctx, "AddRequest", addRequest{}, nil)
	if err == nil {
		t.Fatal("cancelled call succeeded")
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancellation not honoured promptly")
	}
}

func TestNon200Non500Status(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "teapot", http.StatusTeapot)
	}))
	defer ts.Close()
	c := &Client{URL: ts.URL}
	err := c.Call(context.Background(), "AddRequest", addRequest{}, nil)
	if err == nil || !strings.Contains(err.Error(), "418") {
		t.Fatalf("err = %v, want HTTP 418 error", err)
	}
}

func TestCallRawPassthrough(t *testing.T) {
	ts := httptest.NewServer(newCalcServer(t))
	defer ts.Close()
	c := &Client{URL: ts.URL}
	env := EnvelopeRaw([]byte(`<AddRequest><a>3</a><b>4</b></AddRequest>`))
	resp, err := c.CallRaw(context.Background(), "AddRequest", env)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Decode(resp)
	if err != nil {
		t.Fatal(err)
	}
	var out addResponse
	if err := p.DecodeBody(&out); err != nil {
		t.Fatal(err)
	}
	if out.Sum != 7 {
		t.Fatalf("sum = %d", out.Sum)
	}
}

func ExampleClient_Call() {
	s := NewServer()
	s.Handle("EchoRequest", func(ctx context.Context, req *Request) (interface{}, error) {
		var in struct {
			XMLName struct{} `xml:"EchoRequest"`
			Text    string   `xml:"text"`
		}
		if err := req.Decode(&in); err != nil {
			return nil, err
		}
		return struct {
			XMLName struct{} `xml:"EchoResponse"`
			Text    string   `xml:"text"`
		}{Text: in.Text}, nil
	})
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := &Client{URL: ts.URL}
	var out struct {
		XMLName struct{} `xml:"EchoResponse"`
		Text    string   `xml:"text"`
	}
	_ = c.Call(context.Background(), "EchoRequest", struct {
		XMLName struct{} `xml:"EchoRequest"`
		Text    string   `xml:"text"`
	}{Text: "hello"}, &out)
	fmt.Println(out.Text)
	// Output: hello
}
