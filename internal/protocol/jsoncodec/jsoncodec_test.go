package jsoncodec

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/big"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf16"
	"unicode/utf8"

	"wsupgrade/internal/protocol"
)

// referenceEqual is the specification Equal must agree with: an
// encoding/json decode into interface values, each number turned into
// its exact value as a big.Rat, compared structurally. A payload that
// does not parse, or that the decode would not read faithfully —
// invalid UTF-8 or a lone surrogate escape, which it turns into U+FFFD,
// or a duplicated key, of which it keeps the last value — is not
// canonical: such a pair compares by its bytes. big.Rat spells out
// 10^exp, so a case with an exponent beyond ±maxRefExponent is
// skipped: the reference would cost the number's magnitude where Equal
// costs its length.
func referenceEqual(t testing.TB, a, b []byte) (equal, canonical bool) {
	va, okA := referenceDecode(a)
	vb, okB := referenceDecode(b)
	if !okA || !okB {
		return false, false
	}
	return reflect.DeepEqual(exactNumbers(t, va), exactNumbers(t, vb)), true
}

const maxRefExponent = 1000

// referenceDecode decodes one payload token by token with UseNumber,
// refusing what referenceEqual compares by bytes. A decoder reads only
// the first value, so json.Valid refuses trailing bytes first.
func referenceDecode(in []byte) (any, bool) {
	if !json.Valid(in) || !utf8.Valid(in) {
		return nil, false
	}
	dec := json.NewDecoder(bytes.NewReader(in))
	dec.UseNumber()
	return referenceValue(dec, in)
}

func referenceValue(dec *json.Decoder, in []byte) (any, bool) {
	tok, ok := referenceToken(dec, in)
	if !ok {
		return nil, false
	}
	switch tok {
	case json.Delim('{'):
		obj := map[string]any{}
		for dec.More() {
			key, ok := referenceToken(dec, in)
			if !ok {
				return nil, false
			}
			if _, dup := obj[key.(string)]; dup {
				return nil, false
			}
			if obj[key.(string)], ok = referenceValue(dec, in); !ok {
				return nil, false
			}
		}
		_, ok = referenceToken(dec, in)
		return obj, ok
	case json.Delim('['):
		arr := []any{}
		for dec.More() {
			v, ok := referenceValue(dec, in)
			if !ok {
				return nil, false
			}
			arr = append(arr, v)
		}
		_, ok = referenceToken(dec, in)
		return arr, ok
	}
	return tok, true
}

// referenceToken reads one token, refusing a string whose literal — the
// bytes the token was read from, from its opening quote — holds an
// escaped UTF-16 surrogate that is not half of a pair.
func referenceToken(dec *json.Decoder, in []byte) (json.Token, bool) {
	from := dec.InputOffset()
	tok, err := dec.Token()
	if err != nil {
		return nil, false
	}
	if _, ok := tok.(string); ok {
		lit := in[from:dec.InputOffset()]
		if loneSurrogate(lit[bytes.IndexByte(lit, '"'):]) {
			return nil, false
		}
	}
	return tok, true
}

func loneSurrogate(lit []byte) bool {
	hex := func(at int) rune {
		r, err := strconv.ParseUint(string(lit[at:at+4]), 16, 16)
		if err != nil {
			panic(err)
		}
		return rune(r)
	}
	for i := 1; i < len(lit)-1; i++ {
		if lit[i] != '\\' {
			continue
		}
		if i++; lit[i] != 'u' {
			continue
		}
		r := hex(i + 1)
		i += 4
		if !utf16.IsSurrogate(r) {
			continue
		}
		if i+6 < len(lit) && lit[i+1] == '\\' && lit[i+2] == 'u' &&
			utf16.DecodeRune(r, hex(i+3)) != utf8.RuneError {
			i += 6
			continue
		}
		return true
	}
	return false
}

// exactNumbers replaces every json.Number in v by its value in lowest
// terms, so -0 and 0, or 1 and 1.0, are one value to reflect.DeepEqual.
func exactNumbers(t testing.TB, v any) any {
	switch x := v.(type) {
	case json.Number:
		if k := strings.IndexAny(string(x), "eE"); k >= 0 {
			if e, err := strconv.Atoi(string(x[k+1:])); err != nil || e > maxRefExponent || e < -maxRefExponent {
				t.Skipf("exponent of %.40s is beyond the reference's ±%d", x, maxRefExponent)
			}
		}
		r, ok := new(big.Rat).SetString(string(x))
		if !ok {
			t.Fatalf("big.Rat cannot read the number %q", x)
		}
		return json.Number(r.RatString())
	case []any:
		for i, e := range x {
			x[i] = exactNumbers(t, e)
		}
	case map[string]any:
		for k, e := range x {
			x[k] = exactNumbers(t, e)
		}
	}
	return v
}

// equivalenceCorpus is the shared canonical-JSON corpus: key
// reordering, whitespace, number forms, unicode escapes, nested
// arrays/objects — plus pairs that must stay distinguishable.
var equivalenceCorpus = []struct {
	name  string
	a, b  string
	equal bool
}{
	{"identical", `{"sum":3}`, `{"sum":3}`, true},
	{"key-reorder", `{"a":1,"b":2}`, `{"b":2,"a":1}`, true},
	{"nested-key-reorder",
		`{"outer":{"x":1,"y":[{"p":1,"q":2}]}}`,
		`{"outer":{"y":[{"q":2,"p":1}],"x":1}}`, true},
	{"whitespace", `{"a": 1,  "b": [1, 2, 3]}`, `{"a":1,"b":[1,2,3]}`, true},
	{"newlines-and-tabs", "{\n\t\"a\": 1\n}", `{"a":1}`, true},
	{"number-int-vs-decimal", `{"n":1}`, `{"n":1.0}`, true},
	{"number-exponent", `{"n":1}`, `{"n":1e0}`, true},
	{"number-exponent-decimal", `{"n":100}`, `{"n":1.0e2}`, true},
	{"number-negative-forms", `{"n":-0.5}`, `{"n":-5e-1}`, true},
	{"unicode-escape", `{"s":"\u0041BC"}`, `{"s":"ABC"}`, true},
	{"unicode-escape-nonascii", `{"s":"\u00e9"}`, `{"s":"é"}`, true},
	{"escaped-solidus", `{"s":"a\/b"}`, `{"s":"a/b"}`, true},
	{"surrogate-pair-escape", `{"s":"\ud83d\ude00"}`, `{"s":"😀"}`, true},
	{"decomposed-accent", `{"s":"e\u0301"}`, `{"s":"é"}`, false},
	{"escaped-key", `{"\u0061":1,"b":2}`, `{"b":2,"a":1}`, true},
	{"escaped-backslash-then-u", `{"s":"\\ud800"}`, `{ "s": "\\ud800" }`, true},
	{"nested-arrays", `[[1, 2], [3, [4]]]`, `[[1,2],[3,[4]]]`, true},
	{"top-level-scalar", `  1e3 `, `1000`, true},
	{"null-vs-missing", `{"a":null}`, `{}`, false},
	{"different-values", `{"n":1}`, `{"n":2}`, false},
	{"array-order-matters", `[1,2]`, `[2,1]`, false},
	{"string-vs-number", `{"n":"1"}`, `{"n":1}`, false},
	{"case-sensitive-keys", `{"A":1}`, `{"a":1}`, false},
	{"extra-key", `{"a":1}`, `{"a":1,"b":1}`, false},
	{"bool-vs-string", `{"ok":true}`, `{"ok":"true"}`, false},
	// Numbers float64 cannot tell apart are still different numbers.
	{"number-beyond-2^53", `{"id":9007199254740993}`, `{"id":9007199254740992}`, false},
	{"number-beyond-uint64", `12345678901234567890`, `12345678901234567891`, false},
	{"number-beyond-float64-digits", `0.1000000000000000055511151231257827`, `0.1`, false},
	{"number-beyond-float64-range", `1e400`, `10e399`, true},
	{"number-scaled-fraction", `[1]`, `[10e-1]`, true},
	{"number-negative-zero", `{"n":-0}`, `{"n":0.0e5}`, true},
}

func TestEqualAgreesWithReference(t *testing.T) {
	var c Codec
	for _, tc := range equivalenceCorpus {
		t.Run(tc.name, func(t *testing.T) {
			a, b := []byte(tc.a), []byte(tc.b)
			refEq, canonical := referenceEqual(t, a, b)
			if !canonical {
				t.Fatalf("corpus entry %q is not canonical JSON", tc.name)
			}
			if refEq != tc.equal {
				t.Fatalf("corpus entry %q: reference says %v, corpus says %v",
					tc.name, refEq, tc.equal)
			}
			if got := c.Equal(a, b); got != tc.equal {
				t.Errorf("Equal(%q, %q) = %v, want %v", tc.a, tc.b, got, tc.equal)
			}
			if got := c.Equal(b, a); got != tc.equal {
				t.Errorf("Equal(%q, %q) = %v, want %v (symmetry)", tc.b, tc.a, got, tc.equal)
			}
		})
	}
}

// erasedCorpus holds pairs that encoding/json's decode reads as one
// value although their bytes, and what a consumer reading them sees,
// differ: invalid UTF-8 and lone surrogate escapes become U+FFFD, and a
// duplicated key keeps its last value. Each compares by its bytes.
var erasedCorpus = []struct{ name, a, b string }{
	{"invalid-utf8", "{\"a\":\"\xff\"}", "{\"a\":\"\xfe\"}"},
	{"lone-surrogates", `{"a":"\ud800"}`, `{"a":"\udc00"}`},
	{"lone-surrogate-vs-replacement", `{"a":"\ud800"}`, `{"a":"�"}`},
	{"duplicate-key", `{"a":1,"a":2}`, `{"a":3,"a":2}`},
}

// TestEqualSeesWhatDecodingErases holds every pair of erasedCorpus
// unequal, in either order, and outside what the reference reads
// faithfully.
func TestEqualSeesWhatDecodingErases(t *testing.T) {
	for _, tc := range erasedCorpus {
		t.Run(tc.name, func(t *testing.T) {
			a, b := []byte(tc.a), []byte(tc.b)
			if _, canonical := referenceEqual(t, a, b); canonical {
				t.Fatalf("the reference reads %q and %q faithfully", a, b)
			}
			if (Codec{}).Equal(a, b) || (Codec{}).Equal(b, a) {
				t.Errorf("Equal(%q, %q) = true, want false", a, b)
			}
		})
	}
}

// TestEqualMalformedFallsBack mirrors the SOAP comparator's
// conservatism: payloads that do not parse compare by raw bytes only.
func TestEqualMalformedFallsBack(t *testing.T) {
	var c Codec
	malformed := []string{`{"a":`, `{broken}`, ``, `{"a":1}trailing`}
	for _, m := range malformed {
		if !c.Equal([]byte(m), []byte(m)) {
			t.Errorf("identical malformed payload %q must compare equal (byte fast path)", m)
		}
		if c.Equal([]byte(m), []byte(`{"a":1}`)) {
			t.Errorf("malformed %q must not compare equal to valid JSON", m)
		}
		if c.Equal([]byte(m), []byte(m+" ")) {
			t.Errorf("textually distinct malformed payloads %q must stay unequal", m)
		}
	}
}

// TestCanonicalNumber covers what the reference cannot judge: exponents
// of any length, including the borrow and carry across an exponent of 19
// digits or more, which must meet the int64 spelling of the same value.
func TestCanonicalNumber(t *testing.T) {
	for _, tc := range []struct{ lit, want string }{
		{"0", "0"},
		{"-0.000e-7", "0"},
		{"1", "1e0"},
		{"1.0", "1e0"},
		{"10e-1", "1e0"},
		{"-120.50", "-1205e-1"},
		{"0.0012", "12e-4"},
		{"1E+2", "1e2"},
		{"1e999999999", "1e999999999"},
		{"1e0000000000000000000000000007", "1e7"},
		{"10e9999999999999999999", "1e10000000000000000000"},
		{"0.1e-9999999999999999999", "1e-10000000000000000000"},
		{"100e-1000000000000000000", "1e-999999999999999998"},
		{"1e-999999999999999998", "1e-999999999999999998"},
		{"0.01e1000000000000000001", "1e999999999999999999"},
		{"-12.5e99999999999999999999999999999", "-125e99999999999999999999999999998"},
	} {
		if got := canonicalNumber(tc.lit); got != tc.want {
			t.Errorf("canonicalNumber(%q) = %q, want %q", tc.lit, got, tc.want)
		}
	}
}

func TestRouteOperation(t *testing.T) {
	cases := []struct {
		path, want string
	}{
		{"/add", "add"},
		{"add", "add"},
		{"/add/", "add"},
		{"//add//", "add"},
		{"/", ""},
		{"", ""},
		{"/a/b", ""},
		{"/operation1", "operation1"},
	}
	for _, tc := range cases {
		if got := routeOperation(tc.path); got != tc.want {
			t.Errorf("routeOperation(%q) = %q, want %q", tc.path, got, tc.want)
		}
	}
}

func TestDecodeRequest(t *testing.T) {
	var c Codec
	req, err := c.DecodeRequest("/add", []byte(`{"a":1,"b":2}`))
	if err != nil {
		t.Fatalf("DecodeRequest: %v", err)
	}
	if req.Op != "add" || req.Element != "add" {
		t.Fatalf("DecodeRequest = %+v", req)
	}

	if _, err := c.DecodeRequest("/a/b", []byte(`{}`)); err == nil {
		t.Error("nested path must be rejected")
	}
	_, err = c.DecodeRequest("/add", []byte(`{"a":`))
	if err == nil {
		t.Fatal("malformed body must be rejected")
	}
	var pe *protocol.Error
	if !errors.As(err, &pe) || !pe.Client {
		t.Errorf("malformed body error must be a client protocol.Error, got %v", err)
	}
}

func TestDecodeReplyClassification(t *testing.T) {
	var c Codec

	payload, aliases, err := c.DecodeReply(200, []byte(`{"sum":3}`))
	if err != nil || !aliases || string(payload) != `{"sum":3}` {
		t.Fatalf("200 valid: payload=%q aliases=%v err=%v", payload, aliases, err)
	}

	if _, _, err := c.DecodeReply(200, []byte(`not json`)); err == nil {
		t.Fatal("200 invalid JSON must classify as error")
	} else if protocol.IsFault(err) {
		t.Fatal("invalid 200 body is not a protocol fault")
	}

	_, _, err = c.DecodeReply(500, []byte(`{"error":{"message":"boom","operation":"add"}}`))
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("500 error body must yield *Fault, got %v", err)
	}
	if !protocol.IsFault(err) {
		t.Error("*Fault must satisfy protocol.IsFault")
	}
	if f.Message != "boom" || f.Operation != "add" || f.Status != 500 {
		t.Errorf("fault = %+v", f)
	}

	_, _, err = c.DecodeReply(500, []byte(`plain crash text`))
	if se, ok := err.(protocol.StatusError); !ok || se.Error() != "HTTP 500" {
		t.Errorf("unclassifiable 500 must be StatusError, got %v", err)
	}
	_, _, err = c.DecodeReply(503, []byte(`{"error":{"message":"x"}}`))
	if se, ok := err.(protocol.StatusError); !ok || se.Error() != "HTTP 503" {
		t.Errorf("non-fault status must be StatusError, got %v", err)
	}
}

func TestAccepts(t *testing.T) {
	var c Codec
	for _, ct := range []string{"", "application/json", "application/json; charset=utf-8", "text/plain"} {
		if !c.Accepts(ct) {
			t.Errorf("Accepts(%q) = false, want true", ct)
		}
	}
	for _, ct := range []string{"text/xml", "application/soap+xml", "TEXT/XML; charset=utf-8"} {
		if c.Accepts(ct) {
			t.Errorf("Accepts(%q) = true, want false", ct)
		}
	}
}

func TestWriteErrorShapes(t *testing.T) {
	var c Codec

	rec := httptest.NewRecorder()
	c.WriteError(rec, "add", &Fault{Status: 500, Message: "boom", Operation: "add"})
	if rec.Code != 500 {
		t.Errorf("fault status = %d", rec.Code)
	}
	var env errorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("error body %q: %v", rec.Body.String(), err)
	}
	if env.Error.Message != "boom" || env.Error.Operation != "add" {
		t.Errorf("fault body = %+v", env.Error)
	}
	if got := rec.Header().Get("Content-Type"); got != ContentType {
		t.Errorf("Content-Type = %q", got)
	}

	rec = httptest.NewRecorder()
	c.WriteError(rec, "add", protocol.ClientError("bad demand"))
	if rec.Code != 400 {
		t.Errorf("client error status = %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	c.WriteError(rec, "add", errors.New("opaque"))
	if rec.Code != 500 {
		t.Errorf("opaque error status = %d", rec.Code)
	}

	rec = httptest.NewRecorder()
	c.WriteRejection(rec, 415, "json endpoint: unsupported content type")
	if rec.Code != 415 {
		t.Errorf("rejection status = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "unsupported content type") {
		t.Errorf("rejection body = %q", rec.Body.String())
	}
}

func TestTargetURLInterning(t *testing.T) {
	var c Codec
	u1 := c.TargetURL("http://release:8080", "add")
	if u1 != "http://release:8080/add" {
		t.Fatalf("TargetURL = %q", u1)
	}
	u2 := c.TargetURL("http://release:8080", "add")
	if u2 != u1 {
		t.Errorf("interned URL changed: %q vs %q", u1, u2)
	}
	if got := c.TargetURL("http://release:8080/", "add"); got != "http://release:8080/add" {
		t.Errorf("trailing slash join = %q", got)
	}
}

func TestTargetURLAllocFree(t *testing.T) {
	var c Codec
	c.TargetURL("http://warm:1", "op") // prime the cache
	allocs := testing.AllocsPerRun(100, func() {
		if c.TargetURL("http://warm:1", "op") == "" {
			t.Fatal("empty target")
		}
	})
	if allocs != 0 {
		t.Errorf("warm TargetURL allocates %v/op, want 0", allocs)
	}
}

func TestEqualFastPathAllocFree(t *testing.T) {
	var c Codec
	a := []byte(`{"sum":3}`)
	b := []byte(`{"sum":3}`)
	allocs := testing.AllocsPerRun(100, func() {
		if !c.Equal(a, b) {
			t.Fatal("equal payloads")
		}
	})
	if allocs != 0 {
		t.Errorf("byte-equal fast path allocates %v/op, want 0", allocs)
	}
}

// FuzzJSONEqual holds Equal's canonical comparison to referenceEqual,
// encoding/json's decode with numbers compared exactly: it never
// panics, is symmetric, agrees with the reference wherever both sides
// parse, and compares raw bytes wherever either does not.
func FuzzJSONEqual(f *testing.F) {
	for _, tc := range equivalenceCorpus {
		f.Add([]byte(tc.a), []byte(tc.b))
	}
	for _, tc := range erasedCorpus {
		f.Add([]byte(tc.a), []byte(tc.b))
	}
	for _, m := range []string{`{"a":`, `{broken}`, ``, `{"a":1}trailing`} {
		f.Add([]byte(m), []byte(`{"a":1}`))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var c Codec
		got := c.Equal(a, b)
		if c.Equal(b, a) != got {
			t.Fatalf("Equal is not symmetric on %q, %q", a, b)
		}
		want, canonical := referenceEqual(t, a, b)
		if !canonical {
			want = bytes.Equal(a, b)
		}
		if got != want {
			t.Fatalf("Equal(%q, %q) = %v, reference says %v (canonical: %v)", a, b, got, want, canonical)
		}
	})
}
