// Package jsoncodec is the REST/JSON gateway implementation of the
// protocol.Codec seam: the same dispatch core, adjudication and
// monitoring mediate a JSON/HTTP service instead of a SOAP one.
//
// The design mirrors internal/soap's hot-path discipline:
//
//   - the operation routes zero-copy from the URL path (a substring,
//     no split allocation);
//   - request and reply validation is valid, a non-recursive scanner
//     that accepts exactly what encoding/json's Valid does, without
//     allocating;
//   - canonical equivalence starts with a bytes.Equal fast path and
//     falls back to an encoding/json decode compared key-order and
//     whitespace insensitively, numbers by their exact decimal value;
//   - release-call URLs ("endpoint/operation") are interned in a
//     copy-on-write map so the fan-out path never rebuilds the string.
package jsoncodec

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"wsupgrade/internal/httpx"
	"wsupgrade/internal/protocol"
)

// ContentType is the wire content type of the JSON gateway.
const ContentType = "application/json"

// Codec is the REST/JSON protocol codec. The zero value is ready to
// use.
type Codec struct{}

// Default is the pre-boxed shared instance.
var Default protocol.Codec = Codec{}

// contentTypeHeader is the shared Content-Type header value slice;
// response writers must not mutate it.
var contentTypeHeader = []string{ContentType}

// Name implements protocol.Codec.
func (Codec) Name() string { return "json" }

// ContentType implements protocol.Codec.
func (Codec) ContentType() string { return ContentType }

// Accepts implements protocol.Codec: only a clearly XML media type
// (text/xml, application/soap+xml, ...) contradicts a JSON unit.
//
//wsu:noalloc
func (Codec) Accepts(contentType string) bool {
	return !protocol.ContainsFold(contentType, "xml")
}

// DecodeRequest implements protocol.Codec: the operation is the URL
// path's single segment, taken as a zero-copy substring, and the body
// must be well-formed JSON.
//
//wsu:noalloc
func (Codec) DecodeRequest(path string, body []byte) (protocol.Request, error) {
	op := routeOperation(path)
	if op == "" {
		return protocol.Request{}, errBadPath
	}
	if !valid(body) {
		return protocol.Request{}, errBadBody
	}
	return protocol.Request{Op: op, Element: op}, nil
}

// errBadPath and errBadBody are preallocated so rejecting malformed
// demands does not allocate.
var (
	errBadPath = protocol.ClientError("json endpoint: request path must name exactly one operation")
	errBadBody = protocol.ClientError("json endpoint: request body is not valid JSON")
)

// routeOperation extracts the operation from the URL path: exactly one
// non-empty segment, optional leading and trailing slash. The result
// aliases path.
//
//wsu:noalloc
func routeOperation(path string) string {
	for len(path) > 0 && path[0] == '/' {
		path = path[1:]
	}
	for len(path) > 0 && path[len(path)-1] == '/' {
		path = path[:len(path)-1]
	}
	if path == "" || strings.IndexByte(path, '/') >= 0 {
		return ""
	}
	return path
}

// Fault is a JSON error body returned by a release: an evident failure
// that still carried a protocol-level response (protocol.Fault), the
// JSON analogue of a SOAP fault envelope.
type Fault struct {
	// Status is the HTTP status the fault arrived with.
	Status int `json:"-"`
	// Message is the error text.
	Message string `json:"message"`
	// Operation names the faulting operation, when the release said.
	Operation string `json:"operation,omitempty"`
}

// Error implements error.
func (f *Fault) Error() string { return "json error: " + f.Message }

// ProtocolFault marks the fault for protocol.IsFault.
func (f *Fault) ProtocolFault() {}

// errorEnvelope is the wire shape of a JSON error body:
// {"error":{"message":...,"operation":...}}.
type errorEnvelope struct {
	Error *Fault `json:"error"`
}

// DecodeReply implements protocol.Codec:
//
//   - 200 with well-formed JSON: the body itself, aliasing the
//     response buffer (zero copy);
//   - 400/500 carrying an {"error":{...}} body: a *Fault (an evident
//     failure that still counts as a response — protocol.IsFault);
//   - anything else: a StatusError the dispatcher wraps with release
//     context.
func (Codec) DecodeReply(status int, body []byte) (payload []byte, aliases bool, err error) {
	switch status {
	case http.StatusOK:
		if !valid(body) {
			return nil, false, errInvalidReply
		}
		return body, true, nil
	case http.StatusBadRequest, http.StatusInternalServerError:
		var env errorEnvelope
		if jerr := json.Unmarshal(body, &env); jerr == nil && env.Error != nil && env.Error.Message != "" {
			env.Error.Status = status
			return nil, false, env.Error
		}
		return nil, false, protocol.StatusError(status)
	default:
		return nil, false, protocol.StatusError(status)
	}
}

// errInvalidReply classifies a 200 whose body is not JSON; the
// dispatcher wraps it with release context.
var errInvalidReply = protocol.ServerError("invalid JSON body")

// Equal implements protocol.Codec: canonical-JSON equivalence. The
// fast path is a raw byte comparison; payloads that differ textually
// are decoded and compared with object keys in any order, whitespace
// and escapes resolved, and numbers by exact decimal value (1, 1.0, 1e0
// and 10e-1 agree; 9007199254740993 and 9007199254740992 do not).
// Payloads that do not parse compare by the raw bytes — already unequal
// here — mirroring the SOAP canonicalizer's conservatism on unparsable
// fragments. So does a payload that holds what the decode would erase:
// invalid UTF-8 or a lone surrogate escape, which it turns into U+FFFD,
// or a duplicated key, of which it keeps the last value. A consumer that
// reads the bytes, or a duplicated key's first value, would see two such
// replies differ.
//
//wsu:noalloc
func (Codec) Equal(a, b []byte) bool {
	if bytes.Equal(a, b) {
		return true
	}
	return canonicalEqual(a, b)
}

// canonicalEqual is Equal's allocating slow path, kept out of the
// zero-alloc span above.
//
//go:noinline
func canonicalEqual(a, b []byte) bool {
	va, ok := decodeExact(a)
	if !ok {
		return false
	}
	vb, ok := decodeExact(b)
	if !ok {
		return false
	}
	return sameValue(va, vb)
}

// decodeExact decodes one JSON payload into interface values, keeping
// each number as its literal (json.Number): float64 cannot tell 2^53
// from 2^53+1. A payload the decode would not read faithfully is
// refused, as is one that does not parse: decoding into maps keeps a
// duplicated key once, so a decoded payload with fewer members than
// the text names one twice.
func decodeExact(in []byte) (any, bool) {
	// A decoder stops after the first value; the check refuses what
	// follows it, as json.Unmarshal does.
	if !valid(in) {
		return nil, false
	}
	named, ok := faithful(in)
	if !ok {
		return nil, false
	}
	dec := json.NewDecoder(bytes.NewReader(in))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil || members(v) != named {
		return nil, false
	}
	return v, true
}

// faithful counts the object members of in, a valid document, and
// reports whether its strings hold only what a decode keeps: no invalid
// UTF-8 (outside its strings a valid document is ASCII) and no \u escape
// of a UTF-16 surrogate that is not half of an escaped pair. Outside its
// strings a valid document has a colon only after each member's key;
// inside them a backslash starts a well-formed escape.
func faithful(in []byte) (named int, ok bool) {
	if !utf8.Valid(in) {
		return 0, false
	}
	colon := []byte{':'}
	for i := 0; ; {
		q := bytes.IndexByte(in[i:], '"')
		if q < 0 {
			return named + bytes.Count(in[i:], colon), true
		}
		named += bytes.Count(in[i:i+q], colon)
		i += q + 1
		// A string: from escape to escape up to its closing quote.
		end := i + bytes.IndexByte(in[i:], '"')
		for {
			e := bytes.IndexByte(in[i:end], '\\')
			if e < 0 {
				i = end + 1
				break
			}
			if i += e + 1; in[i] != 'u' {
				i++
			} else if i, ok = surrogateFree(in, i+1); !ok {
				return 0, false
			}
			if i > end { // the escape was \"
				end = i + bytes.IndexByte(in[i:], '"')
			}
		}
	}
}

// surrogateFree reads the \u escape whose hex digits start at i, and a
// second one if the first is the high half of a surrogate pair. It
// returns the index after them and whether they are not a lone half.
func surrogateFree(in []byte, i int) (int, bool) {
	unit := func(at int) uint64 {
		u, _ := strconv.ParseUint(string(in[at:at+4]), 16, 16) // valid checked the digits
		return u
	}
	switch r := unit(i); {
	case r < 0xD800 || r > 0xDFFF:
		return i + 4, true
	case r >= 0xDC00 || len(in)-i < 10 || in[i+4] != '\\' || in[i+5] != 'u':
		return i + 4, false
	}
	lo := unit(i + 6)
	return i + 10, lo >= 0xDC00 && lo <= 0xDFFF
}

// members counts the object members of a decoded payload.
func members(v any) int {
	n := 0
	switch x := v.(type) {
	case map[string]any:
		n = len(x)
		for _, e := range x {
			n += members(e)
		}
	case []any:
		for _, e := range x {
			n += members(e)
		}
	}
	return n
}

// sameValue compares two decoded payloads: objects as key sets, arrays
// in order, numbers by canonicalNumber, strings and literals exactly.
func sameValue(a, b any) bool {
	switch x := a.(type) {
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, xv := range x {
			if yv, ok := y[k]; !ok || !sameValue(xv, yv) {
				return false
			}
		}
		return true
	case []any:
		y, ok := b.([]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !sameValue(x[i], y[i]) {
				return false
			}
		}
		return true
	case json.Number:
		y, ok := b.(json.Number)
		return ok && canonicalNumber(string(x)) == canonicalNumber(string(y))
	default: // string, bool or nil
		return a == b
	}
}

// canonicalNumber spells a JSON number literal so that two literals
// spell alike exactly when they denote the same decimal value: a sign
// unless the value is zero, the significant digits without leading or
// trailing zeros, and the power of ten that scales them — 1, 1.0 and
// 10e-1 all read "1e0", -0 and 0 read "0". Its work is proportional to
// the literal's length, never to its magnitude: 1e999999999 is no dearer
// than 1e9.
func canonicalNumber(lit string) string {
	sign := ""
	if lit[0] == '-' {
		sign, lit = "-", lit[1:]
	}
	mant, exp := lit, ""
	if k := strings.IndexAny(lit, "eE"); k >= 0 {
		mant, exp = lit[:k], lit[k+1:]
	}
	whole, frac := mant, ""
	if k := strings.IndexByte(mant, '.'); k >= 0 {
		whole, frac = mant[:k], mant[k+1:]
	}
	digits := strings.TrimLeft(whole+frac, "0")
	if digits == "" {
		return "0"
	}
	sig := strings.TrimRight(digits, "0")
	// The value is sig × 10^(exp + shift).
	shift := len(digits) - len(sig) - len(frac)
	return sign + sig + "e" + addExponent(exp, shift)
}

// addExponent returns the decimal spelling of exp + shift, where exp is
// an exponent literal ("", "7", "+7", "-007") of any length and shift is
// at most a literal's length in magnitude.
func addExponent(exp string, shift int) string {
	neg := false
	if exp != "" && (exp[0] == '+' || exp[0] == '-') {
		neg = exp[0] == '-'
		exp = exp[1:]
	}
	exp = strings.TrimLeft(exp, "0")
	if len(exp) <= 18 {
		var e int64
		for _, c := range exp {
			e = e*10 + int64(c-'0')
		}
		if neg {
			e = -e
		}
		return strconv.FormatInt(e+int64(shift), 10)
	}
	// |exp| ≥ 10^18 outweighs any shift, so the sum keeps exp's sign and
	// only its magnitude moves: carried, or borrowed, digit by digit.
	carry := shift
	if neg {
		carry = -shift
	}
	mag := []byte(exp)
	for k := len(mag) - 1; k >= 0 && carry != 0; k-- {
		v := int(mag[k]-'0') + carry
		carry = v / 10
		if v %= 10; v < 0 {
			v += 10
			carry--
		}
		mag[k] = byte('0' + v)
	}
	if carry > 0 {
		mag = append(strconv.AppendInt(nil, int64(carry), 10), mag...)
	}
	s := strings.TrimLeft(string(mag), "0")
	if neg {
		return "-" + s
	}
	return s
}

// WriteBody implements protocol.Codec: the winning payload is already
// a complete JSON body and is written verbatim. JSON has no response
// header framing, so header items are ignored.
func (Codec) WriteBody(w io.Writer, body []byte, headers ...protocol.HeaderItem) (int, error) {
	httpx.DeclareLength(w, len(body))
	return w.Write(body)
}

// Framed implements protocol.Codec: never, since WriteBody already
// writes the payload as it lies.
//
//wsu:noalloc
func (Codec) Framed(raw, body []byte) bool { return false }

// WriteError implements protocol.Codec: errors render as an
// {"error":{...}} body. A release's *Fault keeps its status; a
// consumer-side *protocol.Error maps to 400; everything else is 500.
func (Codec) WriteError(w http.ResponseWriter, operation string, err error) {
	status := http.StatusInternalServerError
	f := &Fault{Message: err.Error(), Operation: operation}
	var jf *Fault
	var pe *protocol.Error
	switch {
	case errors.As(err, &jf):
		f = &Fault{Message: jf.Message, Operation: jf.Operation}
		if jf.Status != 0 {
			status = jf.Status
		}
	case errors.As(err, &pe):
		f.Message = pe.Msg
		if pe.Client {
			status = http.StatusBadRequest
		}
	}
	writeErrorBody(w, status, f)
}

// WriteRejection implements protocol.Codec: gateway-level rejections
// (405, 415) also speak JSON.
func (Codec) WriteRejection(w http.ResponseWriter, status int, msg string) {
	writeErrorBody(w, status, &Fault{Message: msg})
}

func writeErrorBody(w http.ResponseWriter, status int, f *Fault) {
	// Marshaling a struct of two strings cannot fail.
	body, _ := json.Marshal(errorEnvelope{Error: f})
	w.Header()["Content-Type"] = contentTypeHeader
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// ---------------------------------------------------------------------------
// Release-target interning

// targetKey identifies one interned release-call URL.
type targetKey struct{ base, op string }

// maxTargets caps the interning map: a mediator fronts a handful of
// releases with a bounded operation contract, so 256 distinct
// (endpoint, operation) pairs is generous; beyond it the URL is built
// per call rather than growing without bound.
const maxTargets = 256

var (
	targetMu    sync.Mutex
	targetCache atomic.Pointer[map[targetKey]string]
)

// TargetURL implements protocol.Codec: JSON releases route on the URL
// path, so the target is "endpoint/operation". Hot-path lookups hit a
// copy-on-write interning map — the struct-keyed map index does not
// allocate — and only a first encounter builds the string.
//
//wsu:noalloc
func (Codec) TargetURL(base, operation string) string {
	if m := targetCache.Load(); m != nil {
		if u, ok := (*m)[targetKey{base, operation}]; ok {
			return u
		}
	}
	return internTarget(base, operation)
}

// internTarget is TargetURL's slow path: build the URL and publish a
// copy-on-write successor map containing it.
//
//go:noinline
func internTarget(base, operation string) string {
	u := strings.TrimSuffix(base, "/") + "/" + operation
	targetMu.Lock()
	defer targetMu.Unlock()
	old := targetCache.Load()
	if old != nil {
		if cached, ok := (*old)[targetKey{base, operation}]; ok {
			return cached
		}
		if len(*old) >= maxTargets {
			return u
		}
	}
	next := make(map[targetKey]string, 8)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[targetKey{base, operation}] = u
	targetCache.Store(&next)
	return u
}
