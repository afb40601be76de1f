package jsoncodec

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// benchReply is the mediation benchmark's parallel-json reply shape, 0.4
// KB: two short members and a long padding string.
var benchReply = fmt.Appendf(nil, `{"id":1234,"sum":"01234567","pad":"%s"}`, strings.Repeat("aB3x", 90))

// bigStringReply is a 64 KB reply, almost all of it one string.
var bigStringReply = fmt.Appendf(nil, `{"id":1234,"pad":"%s"}`, strings.Repeat("aB3x", 16<<10))

// nested returns depth arrays (or objects) around an empty one.
func nested(depth int, object bool) string {
	if object {
		return strings.Repeat(`{"k":`, depth-1) + `{}` + strings.Repeat(`}`, depth-1)
	}
	return strings.Repeat(`[`, depth) + strings.Repeat(`]`, depth)
}

// validSeeds are FuzzJSONValid's seeds: each rule json.Valid enforces,
// met from both sides.
var validSeeds = []string{
	``, ` `, " \t\r\n ", `null`, `nul`, `tru`, `true`, `false`, `falsey`, `nullx`,
	`0`, `-0`, `01`, `-01`, `1.`, `.5`, `-`, `+1`, `1e`, `1e+`, `1E-7`, `1.5e+10`, `-0.0e0`, `1.e5`, `0x10`,
	`""`, `"a"`, `"\"\\\/\b\f\n\r\té😀"`, `"\x"`, `"\u"`, `"\u12"`, `"\u00g0"`, `"\U0041"`,
	"\"\x01\"", "\"\x1f\"", "\"\x7f\"", "\"\xff\xfe\"", "\"\xc3\"", "\"a\tb\"", `"unterminated`, `"\`,
	"\xef\xbb\xbf{}", `{}x`, `{} {}`, `[] `, `[1,]`, `[,1]`, `[1 2]`, `{"a":1,}`, `{,}`, `{"a"}`, `{"a":}`,
	`{"a" : [1, {"b": null}], "c": "d"}`, `{1:2}`, `[}`, `{]`, `[[]`, `[]]`, `{"a":1}}`,
	"{\"a\":\"" + strings.Repeat("x", 7) + "\\\"" + strings.Repeat("y", 9) + "\"}",
	nested(maxDepth, false), nested(maxDepth+1, false),
	nested(maxDepth, true), nested(maxDepth+1, true),
	string(benchReply), string(bigStringReply),
}

// FuzzJSONValid holds valid to json.Valid: the same verdict on every
// input.
func FuzzJSONValid(f *testing.F) {
	for _, s := range validSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := valid(data), json.Valid(data); got != want {
			t.Fatalf("valid(%.200q) = %v, json.Valid says %v", data, got, want)
		}
	})
}

func TestValidDepthLimit(t *testing.T) {
	for _, object := range []bool{false, true} {
		if !valid([]byte(nested(maxDepth, object))) {
			t.Errorf("%d nested (object %v) rejected", maxDepth, object)
		}
		if valid([]byte(nested(maxDepth+1, object))) {
			t.Errorf("%d nested (object %v) accepted", maxDepth+1, object)
		}
	}
}

// BenchmarkValid sets valid beside json.Valid on the benchmark's reply
// shape and on a 64 KB string.
func BenchmarkValid(b *testing.B) {
	for _, tc := range []struct {
		name string
		body []byte
	}{{"0.4KB", benchReply}, {"64KB", bigStringReply}} {
		for _, impl := range []struct {
			name  string
			check func([]byte) bool
		}{{"valid", valid}, {"json.Valid", json.Valid}} {
			b.Run(tc.name+"/"+impl.name, func(b *testing.B) {
				b.SetBytes(int64(len(tc.body)))
				b.ReportAllocs()
				for b.Loop() {
					if !impl.check(tc.body) {
						b.Fatal("benchmark body rejected")
					}
				}
			})
		}
	}
}
