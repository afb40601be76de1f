// Package protocol is the codec seam between the mediator and the wire
// formats it fronts. The paper's middleware (§3–4) is defined over
// *demands* — request/reply pairs fanned out to releases, judged and
// counted — and nothing in dispatch, adjudication, lifecycle or
// monitoring actually depends on SOAP; this package names the small
// per-unit contract they do depend on, so one upgrade unit can mediate
// a 2004-era WS-* service while its neighbour fronts a REST/JSON one.
//
// A Codec answers exactly the questions the request pipeline asks:
//
//   - classify an inbound demand — which operation is being invoked,
//     extracted zero-copy from the envelope (SOAP sniffer) or the URL
//     path (JSON router);
//   - classify a release's reply — payload bytes, a protocol fault
//     (an *evident* failure that still carried a response, §5.2.1), or
//     a transport-level error;
//   - compare two reply payloads canonically, the oracle primitive for
//     non-evident failure detection (§5.1.1.3);
//   - render errors and the winning payload back to the consumer, and
//     name the wire content type.
//
// Implementations live in the subpackages protocol/soapcodec (a thin
// adapter over internal/soap, bit-for-bit the mediator's historical
// behaviour) and protocol/jsoncodec (the REST/JSON gateway). The
// package itself imports nothing above the standard library, so every
// layer of the mediator can consume it without cycles.
package protocol

import (
	"errors"
	"fmt"
	"io"
	"net/http"
)

// HeaderItem is one protocol-level response header entry, kept as raw
// bytes in the codec's native header encoding (SOAP: a header element's
// XML; JSON: unused). soap.HeaderItem aliases this type, so items flow
// across the seam without conversion.
type HeaderItem []byte

// Request is one classified inbound demand.
type Request struct {
	// Op is the invoked operation name — the monitoring and routing
	// key. For SOAP it is the first body element's local name with the
	// conventional "Request" suffix trimmed; for JSON it is the URL
	// path's single segment. Op may alias the inbound envelope or URL:
	// it is valid for the life of the request only.
	Op string
	// Element is the wire-level operation element name as written
	// (SOAP: the untrimmed first body element; JSON: same as Op). The
	// §6.2 confidence-operation routing matches on it.
	Element string
}

// Codec is the per-unit protocol contract. Implementations must be
// stateless values (or internally synchronized): one codec instance
// serves every request of its unit concurrently. Methods on the demand
// hot path (DecodeRequest, DecodeReply, Equal, WriteBody, TargetURL,
// Accepts) must not allocate in steady state.
type Codec interface {
	// Name identifies the codec ("soap", "json") in configuration and
	// diagnostics.
	Name() string
	// ContentType is the response Content-Type value.
	ContentType() string
	// Accepts reports whether an inbound Content-Type is compatible
	// with this codec. Unknown and absent types are accepted
	// conservatively (the body decides); only a clearly contradicting
	// type — a JSON media type on a SOAP unit, an XML one on a JSON
	// unit — is rejected, with HTTP 415 at the gateway.
	Accepts(contentType string) bool
	// DecodeRequest classifies one inbound demand from the request path
	// and body. The returned Request may alias both. Errors are
	// consumer-side and render through WriteError.
	DecodeRequest(path string, body []byte) (Request, error)
	// DecodeReply classifies one release reply. On success, payload is
	// the reply body to adjudicate and aliases reports whether it
	// aliases the caller's body buffer (true: the buffer must outlive
	// the payload; false: the caller may release the buffer
	// immediately — payload, if non-nil, is an independent copy). On
	// failure, err is either a protocol fault (IsFault(err), an evident
	// failure that still counts as a response) or a classification
	// error the dispatcher wraps with release context.
	DecodeReply(status int, body []byte) (payload []byte, aliases bool, err error)
	// Equal reports whether two reply payloads are canonically
	// equivalent — formatting-insensitive by the codec's own rules
	// (SOAP: XML canonicalization; JSON: key order, whitespace and
	// number-form insensitive). Payloads the codec cannot parse compare
	// by raw bytes, which are already unequal when Equal is asked.
	Equal(a, b []byte) bool
	// WriteBody writes the winning payload in the codec's response
	// framing (SOAP: re-enveloped with optional header items; JSON:
	// verbatim). Headers the codec has no representation for are
	// ignored. A response past httpx.BufferBeforeChunking declares its
	// length, so an http.ResponseWriter's header must still be
	// unwritten; up to soap.OneWriteMax it leaves in one Write.
	// Neither body nor headers are retained past the call: the caller
	// recycles both.
	WriteBody(w io.Writer, body []byte, headers ...HeaderItem) (int, error)
	// WriteError renders err as the codec's error body with the
	// appropriate status code. A fault native to the codec renders as
	// itself; a *Error maps to the codec's client/server error shape;
	// anything else renders as a server-side error.
	WriteError(w http.ResponseWriter, operation string, err error)
	// WriteRejection renders a gateway-level rejection (405, 415) that
	// precedes protocol processing.
	WriteRejection(w http.ResponseWriter, status int, msg string)
	// TargetURL resolves the release-call URL for one operation (SOAP:
	// the endpoint as deployed; JSON: endpoint/operation, interned so
	// the hot path does not rebuild the string per demand).
	TargetURL(base, operation string) string
}

// Error is a protocol-agnostic demand-processing error. Codecs render
// it in their native error shape; Client selects the consumer-side
// variant (SOAP soap:Client, JSON HTTP 400).
type Error struct {
	// Client marks a consumer-side error.
	Client bool
	// Msg is the error text.
	Msg string
}

// Error implements error.
func (e *Error) Error() string { return e.Msg }

// ClientError builds a consumer-side protocol error.
func ClientError(msg string) *Error { return &Error{Client: true, Msg: msg} }

// ServerError builds a mediator/provider-side protocol error.
func ServerError(msg string) *Error { return &Error{Msg: msg} }

// Fault marks a codec's native fault errors: evident failures that
// still carried a protocol-level response (a SOAP fault envelope, a
// JSON error body), as opposed to timeouts and transport errors from
// which nothing was collected. The distinction drives the paper's
// availability accounting (§5.2.1): a faulting release responded.
type Fault interface {
	error
	// ProtocolFault is the marker method; it carries no behaviour.
	ProtocolFault()
}

// IsFault reports whether err is (or wraps) a codec fault.
func IsFault(err error) bool {
	var f Fault
	return errors.As(err, &f)
}

// StatusError is a release reply with an HTTP status the codec cannot
// classify. Its text matches the historical dispatch classification
// ("HTTP 503"), which release-context wrapping turns into
// "dispatch: release 1.0: HTTP 503".
type StatusError int

// Error implements error.
func (s StatusError) Error() string { return fmt.Sprintf("HTTP %d", int(s)) }

// ConfOps is the optional §6.2 confidence-publishing extension: the
// dedicated OperationConf operation, "<op>Conf" variants, and the
// per-response confidence header. Only codecs whose wire format has a
// place for these implement it (SOAP); the engine falls back to plain
// HTTP headers for the rest.
type ConfOps interface {
	// ConfQueryElement is the wire element name that selects the
	// dedicated confidence-query operation.
	ConfQueryElement() string
	// DecodeConfQuery extracts the queried operation name from a
	// confidence-query request body.
	DecodeConfQuery(body []byte) (operation string, err error)
	// EncodeConfResponse renders the confidence-query response as a
	// complete response body.
	EncodeConfResponse(confidence float64) ([]byte, error)
	// RewriteConfVariant rewrites an "<op>Conf" variant request body
	// into the underlying operation's request envelope.
	RewriteConfVariant(body []byte, baseOp string) ([]byte, error)
	// ExtendConfVariant extends the winning payload of the underlying
	// operation with the confidence element and renames it to the
	// variant's response shape.
	ExtendConfVariant(winnerBody []byte, baseOp string, confidence float64) ([]byte, error)
	// AppendConfidenceHeader renders the per-response confidence
	// header item, appended to dst.
	AppendConfidenceHeader(dst []byte, operation string, value float64) HeaderItem
}

// ContainsFold reports whether s contains substr ASCII
// case-insensitively — the content-type contradiction test, run per
// request before the body is read.
//
//wsu:noalloc
func ContainsFold(s, substr string) bool {
	if len(substr) == 0 {
		return true
	}
	for i := 0; i+len(substr) <= len(s); i++ {
		if equalFoldAt(s, i, substr) {
			return true
		}
	}
	return false
}

//wsu:noalloc
func equalFoldAt(s string, off int, substr string) bool {
	for j := 0; j < len(substr); j++ {
		a, b := s[off+j], substr[j]
		if 'A' <= a && a <= 'Z' {
			a += 'a' - 'A'
		}
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if a != b {
			return false
		}
	}
	return true
}
