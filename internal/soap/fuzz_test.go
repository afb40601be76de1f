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

// FuzzEqualCanonical fuzzes the streaming comparison against
// Canonicalize. The seed corpus is the two tables of soap_test.go plus
// the shapes that exercise the stream machinery itself: text longer
// than a piece (cut on multi-byte runes and on escapes), a start tag
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
