package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// xmlSafeString is a quick generator producing strings XML can round-trip
// (printable ASCII — the decoder rejects most control characters).
type xmlSafeString string

var _ quick.Generator = xmlSafeString("")

// Generate implements quick.Generator.
func (xmlSafeString) Generate(r *rand.Rand, size int) reflect.Value {
	const alphabet = "abcdefghijklmnopqrstuvwxyz ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789<>&\"'-_.,!?()"
	n := r.Intn(size + 1)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteByte(alphabet[r.Intn(len(alphabet))])
	}
	return reflect.ValueOf(xmlSafeString(b.String()))
}

type echoPayload struct {
	XMLName struct{} `xml:"EchoRequest"`
	Text    string   `xml:"text"`
	Number  int      `xml:"number"`
	Flag    bool     `xml:"flag"`
}

// Property: envelope marshalling round-trips arbitrary payload content,
// including XML metacharacters.
func TestEnvelopeRoundTripProperty(t *testing.T) {
	f := func(text xmlSafeString, number int, flag bool) bool {
		in := echoPayload{Text: string(text), Number: number, Flag: flag}
		env, err := Envelope(in)
		if err != nil {
			return false
		}
		parsed, err := Decode(env)
		if err != nil {
			return false
		}
		if parsed.Operation != "EchoRequest" {
			return false
		}
		var out echoPayload
		if err := parsed.DecodeBody(&out); err != nil {
			return false
		}
		return out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: canonical equality is reflexive and symmetric on round-
// trippable payloads, and headers do not affect body comparison.
func TestCanonicalEqualityProperty(t *testing.T) {
	f := func(text xmlSafeString, number int) bool {
		in := echoPayload{Text: string(text), Number: number}
		a, err := Envelope(in)
		if err != nil {
			return false
		}
		b, err := Envelope(in, HeaderItem(`<h xmlns="urn:h">x</h>`))
		if err != nil {
			return false
		}
		pa, err1 := Decode(a)
		pb, err2 := Decode(b)
		if err1 != nil || err2 != nil {
			return false
		}
		if !EqualCanonical(pa.BodyXML, pb.BodyXML) {
			return false
		}
		return EqualCanonical(pa.BodyXML, pa.BodyXML)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: canonical equality distinguishes payloads that differ in a
// field value.
func TestCanonicalInequalityProperty(t *testing.T) {
	f := func(text xmlSafeString, n int) bool {
		a, err := Envelope(echoPayload{Text: string(text), Number: n})
		if err != nil {
			return false
		}
		b, err := Envelope(echoPayload{Text: string(text), Number: n + 1})
		if err != nil {
			return false
		}
		pa, err1 := Decode(a)
		pb, err2 := Decode(b)
		if err1 != nil || err2 != nil {
			return false
		}
		return !EqualCanonical(pa.BodyXML, pb.BodyXML)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: RenameRoot preserves the payload and renames exactly the root.
func TestRenameRootProperty(t *testing.T) {
	f := func(text xmlSafeString, number int) bool {
		in := echoPayload{Text: string(text), Number: number}
		env, err := Envelope(in)
		if err != nil {
			return false
		}
		parsed, err := Decode(env)
		if err != nil {
			return false
		}
		renamed, err := RenameRoot(parsed.BodyXML, "RenamedRequest")
		if err != nil {
			return false
		}
		reparsed, err := Decode(EnvelopeRaw(renamed))
		if err != nil {
			return false
		}
		if reparsed.Operation != "RenamedRequest" {
			return false
		}
		var out struct {
			XMLName struct{} `xml:"RenamedRequest"`
			Text    string   `xml:"text"`
			Number  int      `xml:"number"`
		}
		if err := reparsed.DecodeBody(&out); err != nil {
			return false
		}
		return out.Text == in.Text && out.Number == in.Number
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: InjectElement keeps the original children and appends the new
// one inside the root.
func TestInjectElementProperty(t *testing.T) {
	f := func(text xmlSafeString) bool {
		in := echoPayload{Text: string(text), Number: 7}
		env, err := Envelope(in)
		if err != nil {
			return false
		}
		parsed, err := Decode(env)
		if err != nil {
			return false
		}
		injected, err := InjectElement(parsed.BodyXML, []byte(`<extra>1</extra>`))
		if err != nil {
			return false
		}
		var out struct {
			XMLName struct{} `xml:"EchoRequest"`
			Text    string   `xml:"text"`
			Number  int      `xml:"number"`
			Extra   int      `xml:"extra"`
		}
		reparsed, err := Decode(EnvelopeRaw(injected))
		if err != nil {
			return false
		}
		if err := reparsed.DecodeBody(&out); err != nil {
			return false
		}
		return out.Text == in.Text && out.Number == in.Number && out.Extra == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AppendEscaped is xml.EscapeText, byte for byte, on arbitrary
// bytes — invalid UTF-8 and characters outside XML's range included —
// whether they arrive as a slice or as a string.
func TestAppendEscapedMatchesEscapeText(t *testing.T) {
	f := func(s []byte) bool {
		var want bytes.Buffer
		if err := xml.EscapeText(&want, s); err != nil {
			return false
		}
		return bytes.Equal(AppendEscaped(nil, s), want.Bytes()) && bytes.Equal(AppendEscaped(nil, string(s)), want.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"", "\"'&<>\t\n\r", "\x00\x1f\x7f", "\xff\xfeé\xc3", "\ufffd\ufffe\U0010ffff", "a\xed\xa0\x80b"} {
		if !f([]byte(s)) {
			t.Errorf("AppendEscaped(%q) differs from xml.EscapeText", s)
		}
	}
}

// renderTree writes a small random document from the seed twice over:
// structure, names, attribute values and text come from shape, while
// everything canonical form ignores — prefixes, attribute order,
// whitespace and comments between elements, CDATA against escaped text,
// self-closing tags — comes from style. Text runs are long enough,
// sometimes, to be emitted in several pieces.
func renderTree(shape, style *rand.Rand, b *strings.Builder, depth int) {
	prefix := string(rune('p' + style.Intn(3)))
	name := fmt.Sprintf("%s:e%d", prefix, shape.Intn(4))
	attrs := []string{fmt.Sprintf(` xmlns:%s="urn:ns%d"`, prefix, shape.Intn(2))}
	for i, n := 0, shape.Intn(4); i < n; i++ {
		attrs = append(attrs, fmt.Sprintf(` a%d="v%d&amp;"`, i, shape.Intn(3)))
	}
	style.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
	gap := func() {
		b.WriteString([]string{"", "\n  ", "<!-- c -->", " <?pi?> "}[style.Intn(4)])
	}
	children := 0
	if depth < 3 {
		children = shape.Intn(4)
	}
	text := ""
	if children == 0 && shape.Intn(3) > 0 {
		text = strings.Repeat("é<&x ", 1+shape.Intn(2)*shape.Intn(600))
	}
	if children == 0 && text == "" && style.Intn(2) == 0 {
		fmt.Fprintf(b, "<%s%s/>", name, strings.Join(attrs, ""))
		return
	}
	fmt.Fprintf(b, "<%s%s>", name, strings.Join(attrs, ""))
	if text != "" {
		if style.Intn(2) == 0 {
			b.WriteString("<![CDATA[" + text + "]]>")
		} else {
			_ = xml.EscapeText(b, []byte(text))
		}
	}
	for i := 0; i < children; i++ {
		gap()
		renderTree(shape, style, b, depth+1)
	}
	if children > 0 {
		gap()
	}
	fmt.Fprintf(b, "</%s>", name)
}

// Property: two renderings of one tree that differ only in what
// canonical form ignores compare equal, and — like any one-byte
// corruption of either — get the reference's verdict, both ways round.
func TestEqualCanonicalAgreesWithReferenceProperty(t *testing.T) {
	f := func(seed int64, styleA, styleB int64, flip uint) bool {
		var a, b strings.Builder
		renderTree(rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(styleA)), &a, 0)
		renderTree(rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(styleB)), &b, 0)
		x, y := []byte(a.String()), []byte(b.String())
		if !EqualCanonical(x, y) {
			t.Logf("renderings of one tree compared unequal:\n%s\n%s", clip(x), clip(y))
			return false
		}
		checkAgainstReference(t, x, y)
		y[flip%uint(len(y))] ^= 1 << (flip % 7)
		checkAgainstReference(t, x, y)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
