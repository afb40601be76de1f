package soap

import (
	"bytes"
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
