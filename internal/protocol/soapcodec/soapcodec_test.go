package soapcodec

import (
	"encoding/xml"
	"fmt"
	"strings"
	"testing"

	"wsupgrade/internal/wsdl"
)

// Golden: for every operation a WSDL can name (an NCName) the appended
// header is, byte for byte, what the fmt.Sprintf it replaced printed.
func TestConfidenceHeaderGolden(t *testing.T) {
	for _, op := range []string{"add", "getQuote", "Op_1.x-y", "", "prüfen", "預約"} {
		for _, v := range []float64{0, 1, 0.5, 0.9999995, 0.123456789, 1e-9} {
			want := fmt.Sprintf(`<conf:Confidence xmlns:conf=%q operation=%q value="%.6f"/>`, wsdl.UpgradeNS, op, v)
			if got := string(Codec{}.AppendConfidenceHeader(nil, op, v)); got != want {
				t.Errorf("AppendConfidenceHeader(nil, %q, %v) = %s, want %s", op, v, got, want)
			}
		}
	}
}

// An operation name is consumer input (it is sniffed from the request):
// whatever it holds, the header stays one well-formed element whose
// attribute reads back as the name. Go quoting, which the Sprintf used,
// is not XML escaping.
func TestConfidenceHeaderEscapesOperation(t *testing.T) {
	for _, op := range []string{`a"b`, `<x>&'`, "tab\there", "nel", `back\slash`, `" value="1.000000"/><evil a="`} {
		item := Codec{}.AppendConfidenceHeader(nil, op, 0.25)
		var el struct {
			Operation string `xml:"operation,attr"`
			Value     string `xml:"value,attr"`
		}
		if err := xml.Unmarshal(item, &el); err != nil {
			t.Errorf("AppendConfidenceHeader(nil, %q) = %s: %v", op, item, err)
			continue
		}
		if el.Operation != op || el.Value != "0.250000" {
			t.Errorf("AppendConfidenceHeader(nil, %q) = %s reads back as operation %q value %q", op, item, el.Operation, el.Value)
		}
	}
}

// The header item is appended: into a buffer with room for it, in place
// and with no allocation (the engine renders it into a pooled one).
func TestAppendConfidenceHeaderAllocatesNothing(t *testing.T) {
	op := strings.Repeat("operation", 8) // past any small-string stack buffer
	buf := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() { _ = Codec{}.AppendConfidenceHeader(buf, op, 0.987654) }); n != 0 {
		t.Errorf("AppendConfidenceHeader into a buffer with room allocates %v times, want 0", n)
	}
	if item := (Codec{}).AppendConfidenceHeader(buf, op, 0.987654); &item[0] != &buf[:1][0] {
		t.Error("AppendConfidenceHeader into a buffer with room did not write into it")
	}
}
