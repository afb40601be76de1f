// Package soap is a minimal SOAP 1.1 implementation over net/http,
// sufficient for the paper's Web Service architecture: envelopes with
// headers and faults, document-style RPC dispatch by the first body
// element, an HTTP client, and payload canonicalization for back-to-back
// response comparison.
//
// The paper's middleware intercepts SOAP messages between consumers and
// the deployed releases of a Web Service (Figs 3-5); this package provides
// both the endpoint runtime (Server) and the message-level primitives the
// interceptor needs (Decode, Envelope, Fault, Canonicalize).
package soap

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"unicode/utf8"

	"wsupgrade/internal/httpx"
	"wsupgrade/internal/pool"
	"wsupgrade/internal/protocol"
)

// EnvelopeNS is the SOAP 1.1 envelope namespace.
const EnvelopeNS = "http://schemas.xmlsoap.org/soap/envelope/"

// ContentType is the SOAP 1.1 HTTP content type.
const ContentType = "text/xml; charset=utf-8"

// maxMessageBytes bounds parsed messages; a well-formed WS message in this
// system is far smaller, and the bound keeps a malicious or broken peer
// from exhausting memory.
const maxMessageBytes = 10 << 20

// Errors returned by parsing and dispatch.
var (
	// ErrNotSOAP reports a message that is not a SOAP 1.1 envelope.
	ErrNotSOAP = errors.New("soap: not a SOAP 1.1 envelope")
	// ErrEmptyBody reports an envelope with no operation element.
	ErrEmptyBody = errors.New("soap: empty body")
	// ErrNoSuchOperation reports an unknown operation name.
	ErrNoSuchOperation = errors.New("soap: no such operation")
)

// Fault is a SOAP 1.1 fault. It implements error so handlers and clients
// can surface it directly; a fault is the paper's canonical *evident*
// failure at the message level.
type Fault struct {
	// Code is the qualified fault code ("soap:Server", "soap:Client").
	Code string
	// String is the human-readable fault description.
	String string
	// Actor optionally names the failing node.
	Actor string
	// Detail optionally carries application diagnostic content.
	Detail string
}

// Error implements error.
func (f *Fault) Error() string {
	return fmt.Sprintf("soap fault %s: %s", f.Code, f.String)
}

// ProtocolFault marks the fault for the codec seam: protocol.IsFault
// recognizes a SOAP fault as an evident failure that still carried a
// response (see internal/protocol.Fault).
func (f *Fault) ProtocolFault() {}

// ServerFault builds a receiver-side fault.
func ServerFault(msg string) *Fault { return &Fault{Code: "soap:Server", String: msg} }

// ClientFault builds a sender-side fault.
func ClientFault(msg string) *Fault { return &Fault{Code: "soap:Client", String: msg} }

// IsFault reports whether err is (or wraps) a SOAP fault — an evident
// failure that still carried a response, as opposed to a timeout or
// transport error from which nothing was collected.
func IsFault(err error) bool {
	var f *Fault
	return errors.As(err, &f)
}

// HeaderItem is one SOAP header entry, kept as raw XML. It aliases the
// codec seam's header type so items cross the protocol boundary without
// conversion.
type HeaderItem = protocol.HeaderItem

// scratch recycles the buffers of envelope writing, fault rendering and
// canonical comparison — all on the middleware's per-request hot path,
// where a fresh buffer per call was measurable allocator traffic. It
// is size-classed (see pool.BufPool), so a buffer a large message grew
// is reused by the next large message and by nothing else.
var scratch pool.BufPool

const (
	envelopeOpen = xml.Header + `<soap:Envelope xmlns:soap="` + EnvelopeNS + `">`
	headerOpen   = `<soap:Header>`
	headerClose  = `</soap:Header>`
	bodyOpen     = `<soap:Body>`
)

// envelopeTail closes what appendEnvelopeHead opens (a []byte so the
// copy-free write of an envelope past OneWriteMax needs no conversion).
var envelopeTail = []byte(`</soap:Body></soap:Envelope>`)

// Envelope wraps the XML marshalling of payload into a SOAP envelope.
// Extra header items are emitted inside a Header element.
func Envelope(payload interface{}, headers ...HeaderItem) ([]byte, error) {
	inner, err := xml.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("soap: marshalling payload: %w", err)
	}
	return EnvelopeRaw(inner, headers...), nil
}

// envelopeHeadLen is the length appendEnvelopeHead will append.
func envelopeHeadLen(headers []HeaderItem) int {
	n := len(envelopeOpen) + len(bodyOpen)
	if len(headers) > 0 {
		n += len(headerOpen) + len(headerClose)
		for _, h := range headers {
			n += len(h)
		}
	}
	return n
}

// appendEnvelopeHead renders everything that precedes the body content:
// the XML declaration, the Envelope start tag, the optional Header
// block and the Body start tag.
func appendEnvelopeHead(dst []byte, headers []HeaderItem) []byte {
	dst = append(dst, envelopeOpen...)
	if len(headers) > 0 {
		dst = append(dst, headerOpen...)
		for _, h := range headers {
			dst = append(dst, h...)
		}
		dst = append(dst, headerClose...)
	}
	return append(dst, bodyOpen...)
}

// EnvelopeRaw wraps pre-marshalled body XML into a SOAP envelope.
func EnvelopeRaw(bodyXML []byte, headers ...HeaderItem) []byte {
	out := make([]byte, 0, envelopeHeadLen(headers)+len(bodyXML)+len(envelopeTail))
	out = appendEnvelopeHead(out, headers)
	out = append(out, bodyXML...)
	return append(out, envelopeTail...)
}

// EnvelopeLen is the length of the envelope WriteEnvelopeRaw writes
// around bodyLen bytes of body XML.
func EnvelopeLen(bodyLen int, headers ...HeaderItem) int {
	return envelopeHeadLen(headers) + bodyLen + len(envelopeTail)
}

// Framed reports whether raw is exactly the envelope EnvelopeRaw
// renders around body with no header items — the constant head, body,
// the constant tail — with body aliasing raw right after the head, as
// the scanner's BodyXML does when it read raw. A caller about to
// re-render body can then send raw as it lies: the bytes are the same
// by construction. A body that does not alias raw (a rewritten one, or
// the copy encoding/xml's parse returns) is never framed, and neither
// is an empty one.
//
//wsu:noalloc
func Framed(raw, body []byte) bool {
	const head = envelopeOpen + bodyOpen
	return len(body) > 0 && len(raw) == len(head)+len(body)+len(envelopeTail) &&
		&raw[len(head)] == &body[0] &&
		string(raw[:len(head)]) == head &&
		bytes.Equal(raw[len(head)+len(body):], envelopeTail)
}

// OneWriteMax is the largest envelope WriteEnvelopeRaw renders into one
// buffer for a single Write: the 128 KiB size class, in which
// observation-large's 64 KB replies were measured end to end (DECISIONS.md
// PR 36a). It governs rendered envelopes only — a release's reply that
// is already Framed leaves as it arrived, in one Write at any size
// (DECISIONS.md PR 38a). The copy costs time in proportion to the reply;
// the Write it saves, the tail's send after the handler returns, does
// not grow with it. Over loopback the copy lost from the 256 KiB class
// on.
const OneWriteMax = 128 << 10

// WriteEnvelopeRaw writes the envelope for pre-marshalled body XML
// to w — the response-write path of every proxied request whose reply
// is not sent as it arrived (Framed): one with header items, a
// rewritten body, an envelope in another form. Up to
// OneWriteMax the whole envelope (head, header items, body and tail) is
// rendered into a pooled buffer of its size class and goes out in a
// single Write, so net/http sends all of it while the handler runs
// rather than holding a tail back until the handler returns. Past it
// only the head is rendered and bodyXML itself is written between it
// and the constant tail: three Writes. A caller writing to net/http
// declares the EnvelopeLen first (httpx.DeclareLength), so that a large
// one is not chunk-framed.
func WriteEnvelopeRaw(w io.Writer, bodyXML []byte, headers ...HeaderItem) (int, error) {
	n := EnvelopeLen(len(bodyXML), headers...)
	if n > OneWriteMax {
		return writeEnvelopeParts(w, bodyXML, headers)
	}
	b := scratch.GetSized(n)
	b.B = append(append(appendEnvelopeHead(b.B, headers), bodyXML...), envelopeTail...)
	m, err := w.Write(b.B)
	b.Release()
	return m, err
}

// writeEnvelopeParts is WriteEnvelopeRaw past OneWriteMax: the rendered
// head, then bodyXML and the tail as they lie.
func writeEnvelopeParts(w io.Writer, bodyXML []byte, headers []HeaderItem) (int, error) {
	b := scratch.GetSized(envelopeHeadLen(headers))
	b.B = appendEnvelopeHead(b.B, headers)
	n, err := w.Write(b.B)
	b.Release()
	if err != nil {
		return n, err
	}
	m, err := w.Write(bodyXML)
	n += m
	if err != nil {
		return n, err
	}
	m, err = w.Write(envelopeTail)
	return n + m, err
}

// FaultEnvelope renders a fault as a complete SOAP envelope.
func FaultEnvelope(f *Fault) []byte {
	b := scratch.Get()
	b.B = append(b.B, `<soap:Fault><faultcode>`...)
	b.B = AppendEscaped(b.B, f.Code)
	b.B = append(b.B, `</faultcode><faultstring>`...)
	b.B = AppendEscaped(b.B, f.String)
	b.B = append(b.B, `</faultstring>`...)
	if f.Actor != "" {
		b.B = append(b.B, `<faultactor>`...)
		b.B = AppendEscaped(b.B, f.Actor)
		b.B = append(b.B, `</faultactor>`...)
	}
	if f.Detail != "" {
		b.B = append(b.B, `<detail>`...)
		b.B = AppendEscaped(b.B, f.Detail)
		b.B = append(b.B, `</detail>`...)
	}
	b.B = append(b.B, `</soap:Fault>`...)
	env := EnvelopeRaw(b.B)
	b.Release()
	return env
}

// AppendEscaped appends s with the escaping of xml.EscapeText, byte
// for byte (the five markup characters, tab, newline, carriage return,
// and U+FFFD for invalid UTF-8 or characters outside XML's range),
// without the io.Writer: scratch here is an append-to slice. The output
// is safe as character data and inside a quoted attribute value alike.
func AppendEscaped[S ~[]byte | ~string](dst []byte, s S) []byte {
	last := 0
	for i := 0; i < len(s); {
		r, width := rune(s[i]), 1
		if r >= utf8.RuneSelf {
			var enc [utf8.UTFMax]byte
			r, width = utf8.DecodeRune(enc[:copy(enc[:], s[i:])])
		}
		i += width
		esc := escapeOf(r)
		if esc == "" {
			if inXMLCharRange(r) && !(r == utf8.RuneError && width == 1) {
				continue
			}
			esc = "\uFFFD"
		}
		dst = append(dst, s[last:i-width]...)
		dst = append(dst, esc...)
		last = i
	}
	return append(dst, s[last:]...)
}

// escapeOf is the escape AppendEscaped writes for r, or "" for a rune
// it writes as it is (or replaces, outside XML's range).
func escapeOf(r rune) string {
	switch r {
	case '"':
		return "&#34;"
	case '\'':
		return "&#39;"
	case '&':
		return "&amp;"
	case '<':
		return "&lt;"
	case '>':
		return "&gt;"
	case '\t':
		return "&#x9;"
	case '\n':
		return "&#xA;"
	case '\r':
		return "&#xD;"
	}
	return ""
}

// inXMLCharRange is the XML 1.0 Char production (§2.2), as
// encoding/xml applies it.
func inXMLCharRange(r rune) bool {
	return r == 0x09 || r == 0x0A || r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// ---------------------------------------------------------------------------
// Server

// Request carries one dispatched operation invocation.
type Request struct {
	// Operation is the local name of the invoked operation.
	Operation string
	// Envelope is the parsed incoming message.
	Envelope *Parsed
	// HTTP is the underlying transport request (for peer info).
	HTTP *http.Request
	// ResponseHeader lets handlers and middleware attach transport
	// metadata to the response (e.g. release version headers).
	ResponseHeader http.Header
}

// Decode unmarshals the operation's request element into v.
func (r *Request) Decode(v interface{}) error { return r.Envelope.DecodeBody(v) }

// Raw is a pre-marshalled response body: a handler returning Raw has its
// bytes written into the response envelope verbatim (the fault-injection
// middleware uses this to corrupt responses below the type system).
type Raw []byte

// HandlerFunc processes one operation call. Returning a *Fault (as error)
// sends that fault; any other error becomes a soap:Server fault. The
// returned value is marshalled as the response body element; a Raw value
// is written verbatim.
type HandlerFunc func(ctx context.Context, req *Request) (interface{}, error)

// Server dispatches SOAP calls to registered operations. It implements
// http.Handler. The zero value is not usable; construct with NewServer.
type Server struct {
	ops map[string]HandlerFunc
}

var _ http.Handler = (*Server)(nil)

// NewServer returns an empty dispatcher.
func NewServer() *Server {
	return &Server{ops: make(map[string]HandlerFunc)}
}

// Handle registers the handler for an operation name, replacing any
// previous registration. Registration is not safe concurrently with
// serving; wire the server fully before starting to listen.
func (s *Server) Handle(operation string, h HandlerFunc) {
	s.ops[operation] = h
}

// Operations lists the registered operation names, sorted.
func (s *Server) Operations() []string {
	names := make([]string, 0, len(s.ops))
	for name := range s.ops {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ServeHTTP implements http.Handler: one SOAP call per POST.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "soap endpoint: POST only", http.StatusMethodNotAllowed)
		return
	}
	data, err := httpx.ReadBounded(r.Body, maxMessageBytes)
	if err != nil {
		writeFault(w, ClientFault(fmt.Sprintf("reading request: %v", err)))
		return
	}
	parsed, err := Decode(data)
	if err != nil {
		writeFault(w, ClientFault(err.Error()))
		return
	}
	op := parsed.Operation
	h, ok := s.ops[op]
	if !ok {
		writeFault(w, ClientFault(fmt.Sprintf("%v: %s", ErrNoSuchOperation, op)))
		return
	}
	resp, err := h(r.Context(), &Request{Operation: op, Envelope: &parsed, HTTP: r, ResponseHeader: w.Header()})
	if err != nil {
		var f *Fault
		if !errors.As(err, &f) {
			f = ServerFault(err.Error())
		}
		writeFault(w, f)
		return
	}
	var out []byte
	if raw, ok := resp.(Raw); ok {
		out = EnvelopeRaw(raw)
	} else {
		out, err = Envelope(resp)
		if err != nil {
			writeFault(w, ServerFault(fmt.Sprintf("marshalling response: %v", err)))
			return
		}
	}
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(out)
}

// writeFault sends a fault with HTTP 500, per the SOAP 1.1 HTTP binding.
func writeFault(w http.ResponseWriter, f *Fault) {
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(http.StatusInternalServerError)
	_, _ = w.Write(FaultEnvelope(f))
}

// ---------------------------------------------------------------------------
// Client

// Client invokes operations on a SOAP endpoint.
type Client struct {
	// URL is the endpoint address.
	URL string
	// HTTP is the transport; nil means http.DefaultClient. Give it a
	// timeout — an absent response within the deadline is the evident
	// failure the middleware's availability monitoring counts.
	HTTP *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Call invokes operation with the request payload in, decoding the
// response body into out when out is non-nil. A SOAP fault is returned as
// a *Fault error.
func (c *Client) Call(ctx context.Context, operation string, in, out interface{}) error {
	body, err := Envelope(in)
	if err != nil {
		return err
	}
	respBody, err := c.CallRaw(ctx, operation, body)
	if err != nil {
		return err
	}
	if out == nil {
		return nil
	}
	parsed, err := Decode(respBody)
	if err != nil {
		return err
	}
	return parsed.DecodeBody(out)
}

// CallRaw posts a complete request envelope and returns the raw response
// envelope. SOAP faults are detected and returned as a *Fault error; the
// upgrade middleware builds on this primitive to proxy messages verbatim.
func (c *Client) CallRaw(ctx context.Context, operation string, envelope []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.URL, bytes.NewReader(envelope))
	if err != nil {
		return nil, fmt.Errorf("soap: building request: %w", err)
	}
	req.Header.Set("Content-Type", ContentType)
	req.Header.Set("SOAPAction", `"`+operation+`"`)
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, fmt.Errorf("soap: calling %s: %w", c.URL, err)
	}
	defer resp.Body.Close()
	data, err := httpx.ReadBounded(resp.Body, maxMessageBytes)
	if err != nil {
		return nil, fmt.Errorf("soap: reading response: %w", err)
	}
	if err := ClassifyReply(resp.StatusCode, data); err != nil {
		if IsFault(err) {
			return nil, err
		}
		return nil, fmt.Errorf("soap: %w from %s", err, c.URL)
	}
	return data, nil
}

// ClassifyReply reads a reply's HTTP status the way the SOAP 1.1 HTTP
// binding means it, for every client of a SOAP endpoint: 200 is a reply
// (nil; the caller reads its envelope), a 500 carrying a Fault is that
// *Fault — an evident failure that still counts as a response — and
// anything else, a 500 without a parsable fault included, is a
// protocol.StatusError.
func ClassifyReply(status int, body []byte) error {
	switch status {
	case http.StatusOK:
		return nil
	case http.StatusInternalServerError:
		if parsed, err := Decode(body); err == nil && parsed.Fault != nil {
			return parsed.Fault
		}
	}
	return protocol.StatusError(status)
}
