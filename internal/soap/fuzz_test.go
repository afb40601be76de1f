package soap

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// referenceEqual is EqualCanonical's specification, built on the
// whole-document reference.
func referenceEqual(a, b []byte) bool {
	if bytes.Equal(a, b) {
		return true
	}
	ca, errA := Canonicalize(a)
	cb, errB := Canonicalize(b)
	return errA == nil && errB == nil && bytes.Equal(ca, cb)
}

// checkAgainstReference is the differential property: EqualCanonical
// never panics, agrees with the reference, and is symmetric.
func checkAgainstReference(t *testing.T, a, b []byte) {
	t.Helper()
	want := referenceEqual(a, b)
	if got := EqualCanonical(a, b); got != want {
		t.Fatalf("EqualCanonical = %v, reference says %v\na: %q\nb: %q", got, want, clip(a), clip(b))
	}
	if got := EqualCanonical(b, a); got != want {
		t.Fatalf("EqualCanonical is not symmetric: swapped arguments give %v, reference says %v\na: %q\nb: %q", got, want, clip(a), clip(b))
	}
}

func clip(b []byte) []byte {
	if len(b) > 300 {
		return append(append([]byte(nil), b[:300]...), "…"...)
	}
	return b
}

// FuzzEqualCanonical fuzzes the chunked comparison against
// Canonicalize. The seed corpus is the two tables of soap_test.go plus
// the shapes that exercise the chunks themselves: text longer than a
// chunk (cut on multi-byte runes and on escapes), a start tag
// longer than a chunk, and the benchmark's reply — same-length documents
// that differ in one early digit before 64 KB of padding.
func FuzzEqualCanonical(f *testing.F) {
	for _, c := range canonicalEqualCases {
		f.Add([]byte(c.a), []byte(c.b))
	}
	for _, c := range canonicalDistinctCases {
		f.Add([]byte(c.a), []byte(c.b))
	}
	pad := strings.Repeat("aB3", 64<<10/3)
	reply := func(sum string) []byte {
		return []byte(`<quoteResponse><id>17</id><sum>` + sum + `</sum><pad>` + pad + `</pad></quoteResponse>`)
	}
	f.Add(reply("00012345"), reply("00012346"))
	f.Add(reply("00012345"), append([]byte("\n  "), reply("00012345")...))
	f.Add(reply("00012345"), reply("00012345")[:40<<10]) // unparsable long after the bytes part ways
	runes := strings.Repeat("é<ü&", 3000)
	escaped := strings.NewReplacer("<", "&lt;", "&", "&amp;").Replace(runes)
	f.Add([]byte(`<r>x`+escaped+`</r>`), []byte(`<r><![CDATA[x`+runes+`]]></r>`))
	f.Add([]byte(`<r>`+escaped+`</r>`), []byte(`<r>`+escaped+`!</r>`))
	f.Add([]byte(`<r b="`+pad[:6000]+`" a="1"/>`), []byte(`<r a="1" b="`+pad[:6000]+`"></r>`))

	f.Fuzz(func(t *testing.T, a, b []byte) {
		checkAgainstReference(t, a, b)
	})
}

// scanCanonical runs one canonical scanner over data to its end and
// returns every byte it produced, or ok=false where it declined.
func scanCanonical(data []byte) (out []byte, ok bool) {
	s := canonScan{scanner: scanner{data: data}, chunk: make([]byte, 0, canonChunk)}
	for {
		piece := s.next()
		if s.declined {
			return nil, false
		}
		if len(piece) == 0 {
			return out, true
		}
		out = append(out, piece...)
		s.out = nil
	}
}

// checkCanonicalScan is FuzzCanonicalScan's property: where the scanner
// reads a fragment to its end, Canonicalize reads it too and writes the
// same bytes, and where Canonicalize refuses one, the scanner declines.
// Unlike Decode's scanner, this one has no laxerByDesign slack: it may
// decline what the reference reads, never read what it refuses.
func checkCanonicalScan(t *testing.T, data []byte) {
	t.Helper()
	got, ok := scanCanonical(data)
	want, err := Canonicalize(data)
	switch {
	case ok && err != nil:
		t.Fatalf("the scanner read what Canonicalize refuses (%v)\ninput: %q", err, clip(data))
	case ok && !bytes.Equal(got, want):
		t.Fatalf("canonical bytes differ\nscanner:   %q\nreference: %q\ninput: %q", clip(got), clip(want), clip(data))
	}
}

// FuzzCanonicalScan holds the canonical scanner's bytes, not only
// EqualCanonical's verdict, to Canonicalize. The seeds are the two
// tables of soap_test.go and one fragment for each thing the scanner
// decodes, resolves or declines: prefixes changed and redeclared, the
// default namespace redeclared and undone, attributes reordered,
// predefined and numeric references, CDATA, comments and processing
// instructions splitting text, CR and CRLF, a no-break space, "]]>" in
// text and in a value, and a 64 KB reply whose last kilobyte holds a
// difference.
func FuzzCanonicalScan(f *testing.F) {
	for _, c := range canonicalEqualCases {
		f.Add([]byte(c.a))
		f.Add([]byte(c.b))
	}
	for _, c := range canonicalDistinctCases {
		f.Add([]byte(c.a))
		f.Add([]byte(c.b))
	}
	for _, s := range []string{
		`<p:r xmlns:p="urn:a"><p:c xmlns:p="urn:b"><p:d/></p:c><p:e/></p:r>`,
		`<r xmlns="urn:a"><c xmlns="urn:b"><d/></c><e xmlns=""><f/></e></r>`,
		`<r z="1" a="2" p:m="3" xmlns:p="urn:p" q:m="4" xmlns:q="urn:o" xml:lang="en"/>`,
		`<r a="&lt;&gt;&amp;&apos;&quot;" b="&#9;&#xA;&#13;&#x1F600;">&#60;&#x3e;&#65533;&#xD800;</r>`,
		`<r>&#0;</r>`, `<r>&#x110000;</r>`, `<r>&#X41;</r>`, `<r>&bogus;</r>`, `<r>&#65</r>`,
		"<r><![CDATA[<a> & ]]]]><![CDATA[> \r\n]]></r>",
		`<r>a<!-- c -->b<?p d?>c<![CDATA[ ]]>d</r>`,
		"<r a=\"x\ry\r\nz\">1\r2\r\n3\n\r</r>",
		"<r> </r>", "<r> \u0085 </r>", "<r>&#160;</r>", "<r>&#32;&#10;</r>",
		`<r>a]]>b</r>`, `<r a="]]>"/>`, `<r>]]&gt;</r>`,
		`<x:r/>`, `<xmlns:r/>`, `<r xmlns:p="" p:a="1" p:xmlns="2"/>`, `<r a="1" a="2"/>`,
		`<?xml version="1.0"?><r/>`, `<!DOCTYPE r><r/>`, `<r/>text&amp;`, `<r>x</r >`, `<r>x</s>`,
		"<r>\xff</r>", "<r>\x01</r>", "<r>￾</r>", "<r a='\"'/>", `<r a="<"/>`, `<r a=1/>`, `<r a/>`,
	} {
		f.Add([]byte(s))
	}
	pad := strings.Repeat("aB3x", 16<<10)
	f.Add([]byte(`<r><sum>3</sum><pad>` + pad + `</pad><tail a="1">` + strings.Repeat("x&amp;\n", 146) + `9</tail></r>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCanonicalScan(t, data)
	})
}

// laxerByDesign names the inputs the scanner may accept although the
// parse refuses them — the only disagreement FuzzDecode allows. The
// scanner reads markup (tag names, nesting, comments, processing
// instructions, CDATA boundaries, the Envelope's namespace binding) and
// skips content, so every class is a fault in content it never reads.
// A class is recognised by the parse's own error.
var laxerByDesign = []struct {
	class, reason string
	errs          []string
}{
	{"entities", "character and entity references in text and attribute values are content; the scanner skips them unread",
		[]string{"invalid character entity"}},
	{"attribute syntax", "a start tag is read as a name, then anything — quoted values skipped whole — up to its '>'; only the Envelope's namespace binding is parsed",
		[]string{"expected attribute name in element", "attribute name without = in element",
			"unquoted or missing attribute value in element", "unescaped < inside quoted string", "expected /> in element"}},
	{"encoding", "the scanner reads bytes, not characters: UTF-8 validity, XML's character range and the declaration's version and encoding are the parse's",
		[]string{"invalid UTF-8", "illegal character code", "unsupported version", "declared but Decoder.CharsetReader is nil"}},
	{"names beyond ASCII", "a name byte past ASCII is taken as is; whether it spells a letter is a Unicode table lookup the scanner does not do",
		[]string{"invalid XML name"}},
	{"text", "character data is skipped to the next '<', so ']]>' outside a CDATA section goes unseen",
		[]string{"unescaped ]]> not in CDATA section"}},
}

// laxerClass returns the laxerByDesign class of a parse error, or "".
func laxerClass(err error) string {
	for _, l := range laxerByDesign {
		for _, e := range l.errs {
			if strings.Contains(err.Error(), e) {
				return l.class
			}
		}
	}
	return ""
}

// checkDecode is FuzzDecode's property: Decode is the scan where the
// scanner accepts and the parse elsewhere, and where the scanner
// accepts the parse agrees on the operation, both spans and the fault
// verdict — or refuses for a laxerByDesign reason. Every decoded Body,
// and the input itself, also goes through checkRewrites.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	scanned, ok := scan(data)
	parsed, perr := parse(data)
	got, err := Decode(data)
	checkRewrites(t, data)
	if !ok {
		if (err == nil) != (perr == nil) || !samePieces(got, parsed) {
			t.Fatalf("Decode = %+v, %v; the parse says %+v, %v\ninput: %q", got, err, parsed, perr, clip(data))
		}
		if err == nil {
			checkRewrites(t, got.BodyXML)
		}
		return
	}
	if err != nil || !samePieces(got, scanned) {
		t.Fatalf("Decode = %+v, %v; the scan says %+v\ninput: %q", got, err, scanned, clip(data))
	}
	checkRewrites(t, got.BodyXML)
	if perr != nil {
		if laxerClass(perr) == "" {
			t.Fatalf("the scanner accepted what the parse refuses (%v)\ninput: %q", perr, clip(data))
		}
		return
	}
	if !samePieces(scanned, parsed) {
		t.Fatalf("scan and parse disagree\nscan:  %+v\nparse: %+v\ninput: %q", scanned, parsed, clip(data))
	}
}

// samePieces compares everything Decode reports.
func samePieces(a, b Parsed) bool {
	return a.Operation == b.Operation && bytes.Equal(a.BodyXML, b.BodyXML) &&
		bytes.Equal(a.HeaderXML, b.HeaderXML) && (a.HeaderXML == nil) == (b.HeaderXML == nil) &&
		(a.Fault == nil) == (b.Fault == nil) && (a.Fault == nil || *a.Fault == *b.Fault)
}

// FuzzDecode holds the scanner to the encoding/xml parse (checkDecode).
// The seeds are decode_test.go's two corpora, the envelopes the
// property tests build, and renderTree's documents as Body content.
func FuzzDecode(f *testing.F) {
	for _, env := range commonForm {
		f.Add([]byte(env))
	}
	for _, env := range unusual {
		f.Add([]byte(env))
	}
	for i := int64(0); i < 8; i++ {
		env, err := Envelope(echoPayload{Text: `a<b & "c"`, Number: int(i), Flag: i%2 == 0}, HeaderItem(`<h xmlns="urn:h">x</h>`))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(env)
		var b strings.Builder
		renderTree(rand.New(rand.NewSource(i)), rand.New(rand.NewSource(i+100)), &b, 0)
		f.Add(EnvelopeRaw([]byte(b.String())))
	}
	for _, c := range canonicalEqualCases {
		f.Add(EnvelopeRaw([]byte(c.a)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
	})
}

// FuzzFramed holds Framed to EnvelopeRaw through Decode, reading each
// input both as a release's whole reply and as a body to envelope:
//
//   - a reply Decode reads and Framed passes is EnvelopeRaw of its body,
//     byte for byte, so sending it as it arrived sends what the render
//     would have;
//   - Framed passes EnvelopeRaw(b) whenever the scanner reads b back as
//     its body, so the pass-through misses no canonical reply;
//   - a copy of the body is never framed, however equal its bytes: only
//     a body read in place is.
func FuzzFramed(f *testing.F) {
	const (
		decl = `<?xml version="1.0" encoding="UTF-8"?>` + "\n"
		open = `<soap:Envelope xmlns:soap="` + EnvelopeNS + `">`
		body = `<soap:Body><addResponse><sum>3</sum></addResponse></soap:Body>`
	)
	f.Add(EnvelopeRaw([]byte(`<addResponse><sum>3</sum></addResponse>`)))
	f.Add([]byte(decl + open + body + `</soap:Envelope>` + "\n"))
	f.Add([]byte(decl + `<soapenv:Envelope xmlns:soapenv="` + EnvelopeNS + `"><soapenv:Body><addResponse><sum>3</sum></addResponse></soapenv:Body></soapenv:Envelope>`))
	f.Add([]byte(open + body + `</soap:Envelope>`))
	f.Add(EnvelopeRaw([]byte(`<addResponse><sum>3</sum></addResponse>`), HeaderItem(`<v xmlns="urn:v">1.0</v>`)))
	f.Add(FaultEnvelope(ServerFault("boom")))
	f.Add([]byte(`<addResponse><sum>3</sum></addResponse>`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := Decode(data); err == nil {
			if Framed(data, p.BodyXML) && !bytes.Equal(data, EnvelopeRaw(p.BodyXML)) {
				t.Fatalf("Framed passed a reply that is not EnvelopeRaw of its body: %q", clip(data))
			}
			if len(p.BodyXML) > 0 && Framed(data, bytes.Clone(p.BodyXML)) {
				t.Fatalf("Framed passed a copy of the body: %q", clip(data))
			}
		}
		env := EnvelopeRaw(data)
		if p, ok := scan(env); ok && bytes.Equal(p.BodyXML, data) && !Framed(env, p.BodyXML) {
			t.Fatalf("Framed refused EnvelopeRaw of a body the scanner reads back: %q", clip(data))
		}
	})
}
