package soap

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// commonForm are envelopes the scanner reads on its own; they also seed
// FuzzDecode.
var commonForm = []string{
	// Plain prefixed envelope (what EnvelopeRaw emits).
	`<?xml version="1.0" encoding="UTF-8"?>` +
		`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<soap:Body><addRequest><a>2</a><b>1</b></addRequest></soap:Body></soap:Envelope>`,
	// Default-namespace envelope.
	`<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<Body><getQuote symbol="ACME"/></Body></Envelope>`,
	// Single-quoted namespace declaration, extra attributes first.
	`<e:Envelope id="1" xmlns:e='http://schemas.xmlsoap.org/soap/envelope/'>` +
		`<e:Body><op:run xmlns:op="urn:x"><arg>1</arg></op:run></e:Body></e:Envelope>`,
	// Header subtree with nesting, comments and CDATA.
	`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<soap:Header><auth><token><![CDATA[a<b>c]]></token><!-- note --></auth></soap:Header>` +
		`<soap:Body><transfer><amount>10</amount></transfer></soap:Body></soap:Envelope>`,
	// Whitespace and comments around everything.
	"\n <!-- preamble -->\n" +
		`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">` + "\n  " +
		`<soap:Body>` + "\n    " + `<ping/>` + "\n  " + `</soap:Body>` + "\n" + `</soap:Envelope>`,
	// Attribute value containing '>' inside the body.
	`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<soap:Body><check expr="a > b"><x/></check></soap:Body></soap:Envelope>`,
	// Self-closing Header.
	`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<soap:Header/><soap:Body><noop/></soap:Body></soap:Envelope>`,
	// Nested element with the same name as the operation.
	`<soap:Envelope xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<soap:Body><outer><outer>deep</outer></outer></soap:Body></soap:Envelope>`,
	// Deeper than the scanner's fixed stack.
	`<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body><deep>` +
		strings.Repeat("<d>", 40) + "x" + strings.Repeat("</d>", 40) + `</deep></Body></Envelope>`,
	// A name that is all local part, and an end tag with white space.
	`<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body><:op><a:></a: ></:op></Body></Envelope>`,
	// The prefix bound twice on the root: the last binding holds.
	`<s:Envelope xmlns:s="urn:other" xmlns:s="http://schemas.xmlsoap.org/soap/envelope/"><s:Body><op/></s:Body></s:Envelope>`,
}

// unusual are envelopes the scanner declines — some valid, some not;
// they also seed FuzzDecode.
var unusual = map[string]string{
	"empty":             ``,
	"not xml":           `hello`,
	"not an envelope":   `<root><Body><op/></Body></root>`,
	"wrong namespace":   `<Envelope xmlns="urn:not-soap"><Body><op/></Body></Envelope>`,
	"no namespace":      `<Envelope><Body><op/></Body></Envelope>`,
	"prefix undeclared": `<soap:Envelope><soap:Body><op/></soap:Body></soap:Envelope>`,
	"empty body": `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<Body></Body></Envelope>`,
	"self-closing body": `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<Body/></Envelope>`,
	"truncated": `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body><op`,
	"mismatched tags in body": `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<Body><op><a></b></op></Body></Envelope>`,
	"mismatched body close": `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<Body><op/></NotBody></Envelope>`,
	"mismatched tags in header": `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<Header><a></b></Header><Body><op/></Body></Envelope>`,
	"mismatched envelope close": `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<Body><op/></Body></NotEnvelope>`,
	"unclosed envelope": `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<Body><op/></Body>`,
	"text before operation": `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<Body>stray<op/></Body></Envelope>`,
	"unexpected envelope child": `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<Extra/><Body><op/></Body></Envelope>`,
	"doctype": `<!DOCTYPE Envelope>` +
		`<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body><op/></Body></Envelope>`,
	"fault":             string(FaultEnvelope(&Fault{Code: "soap:Server", String: "x < y", Detail: "d"})),
	"empty-prefix root": `<:Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body><op/></Body></:Envelope>`,
	"two-colon name":    `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body><a:b:c/></Body></Envelope>`,
	"digit-first name":  `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body><1op/></Body></Envelope>`,
	"end tag with attribute": `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<Body><op><a></a x="1"></op></Body></Envelope>`,
	"directive in content": `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<Body><op><!-x/></op></Body></Envelope>`,
	"double dash in comment": `<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<Body><op><!-- a -- b --></op></Body></Envelope>`,
	"targetless PI": `<?>` +
		`<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body><op/></Body></Envelope>`,
	"xml prefix bound": `<xml:Envelope xmlns:xml="http://schemas.xmlsoap.org/soap/envelope/">` +
		`<xml:Body><op/></xml:Body></xml:Envelope>`,
	"empty xmlns prefix": `<Envelope xmlns:="http://schemas.xmlsoap.org/soap/envelope/"><Body><op/></Body></Envelope>`,
	"prefix rebound": `<s:Envelope xmlns:s="http://schemas.xmlsoap.org/soap/envelope/" xmlns:s="urn:other">` +
		`<s:Body><op/></s:Body></s:Envelope>`,
}

// The contract of the scanner: whenever it accepts, it agrees with the
// parse on the operation, the Body and Header spans and the fault
// verdict; the corpus is common-form, so it must accept all of it.
func TestSniffAgreesWithParse(t *testing.T) {
	for _, env := range commonForm {
		data := []byte(env)
		if _, err := parse(data); err != nil {
			t.Fatalf("corpus envelope does not parse: %v\n%s", err, env)
		}
		if _, ok := scan(data); !ok {
			t.Errorf("scanner declined:\n%s", env)
			continue
		}
		checkDecode(t, data)
	}
}

// Round-trip: what EnvelopeRaw emits is always the scanner's.
func TestSniffEnvelopeRawOutput(t *testing.T) {
	env := EnvelopeRaw([]byte(`<addResponse><sum>3</sum></addResponse>`),
		HeaderItem(`<conf:Confidence xmlns:conf="urn:c" value="0.9"/>`))
	p, ok := scan(env)
	if !ok || p.Operation != "addResponse" || string(p.BodyXML) != `<addResponse><sum>3</sum></addResponse>` ||
		string(p.HeaderXML) != `<conf:Confidence xmlns:conf="urn:c" value="0.9"/>` || p.Fault != nil {
		t.Fatalf("scan = %+v, %v", p, ok)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = Decode(env) }); allocs != 0 {
		t.Fatalf("Decode of a common-form envelope allocates %.0f times", allocs)
	}
}

// Everything unusual is declined, never guessed; Decode then answers
// what the parse answers.
func TestSniffFallsBackConservatively(t *testing.T) {
	for name, env := range unusual {
		if p, ok := scan([]byte(env)); ok {
			t.Errorf("%s: scanner guessed %+v", name, p)
		}
		checkDecode(t, []byte(env))
	}
}

func TestSniffRejectsOversizedMessage(t *testing.T) {
	huge := append([]byte(`<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body><op>`),
		bytes.Repeat([]byte(" "), maxMessageBytes)...)
	huge = append(huge, []byte(`</op></Body></Envelope>`)...)
	if _, err := Decode(huge); !errors.Is(err, ErrNotSOAP) {
		t.Fatalf("oversized message: err = %v, want ErrNotSOAP", err)
	}
}

// A Fault is set exactly when the first Body child is a SOAP Fault.
func TestDecodeFaultIsFirstChildOnly(t *testing.T) {
	const ns = `xmlns:soap="http://schemas.xmlsoap.org/soap/envelope/"`
	for body, fault := range map[string]bool{
		`<soap:Fault><faultcode>c</faultcode><faultstring>s</faultstring></soap:Fault>`: true,
		`<Fault><faultcode>c</faultcode></Fault>`:                                       false,
		`<x:Fault xmlns:x="urn:x"/>`:                                                    false,
		`<op/><soap:Fault><faultcode>c</faultcode></soap:Fault>`:                        false,
	} {
		p, err := Decode([]byte(`<soap:Envelope ` + ns + `><soap:Body>` + body + `</soap:Body></soap:Envelope>`))
		if err != nil {
			t.Fatal(err)
		}
		if (p.Fault != nil) != fault {
			t.Errorf("%s: Fault = %+v, want set %v", body, p.Fault, fault)
		}
		if fault && (p.Fault.Code != "c" || p.Fault.String != "s" || p.Operation != "Fault") {
			t.Errorf("%s: fault decoded as %+v, operation %q", body, p.Fault, p.Operation)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	env := EnvelopeRaw([]byte(`<addResponse><sum>42</sum></addResponse>`))
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := Decode(env); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parse(env); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// One envelope per laxerByDesign class: the scanner accepts it, the
// parse refuses it, and the parse's error names the class.
func TestLaxerByDesignClasses(t *testing.T) {
	wrap := func(op string) []byte {
		return []byte(`<Envelope xmlns="http://schemas.xmlsoap.org/soap/envelope/"><Body>` + op + `</Body></Envelope>`)
	}
	for class, data := range map[string][]byte{
		"entities":           wrap(`<op>&undefined;</op>`),
		"attribute syntax":   wrap(`<op a=1/>`),
		"encoding":           append([]byte(`<?xml version="1.0" encoding="latin1"?>`), wrap(`<op/>`)...),
		"names beyond ASCII": wrap(`<op><×/></op>`),
		"text":               wrap(`<op>]]></op>`),
	} {
		if _, ok := scan(data); !ok {
			t.Errorf("%s: the scanner declined %q", class, data)
		}
		_, err := parse(data)
		if err == nil || laxerClass(err) != class {
			t.Errorf("%s: the parse says %v (class %q)", class, err, laxerClass(err))
		}
	}
}
