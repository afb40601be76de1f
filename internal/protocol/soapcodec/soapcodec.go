// Package soapcodec adapts internal/soap to the protocol.Codec seam.
// It is a thin veneer over the envelope reader (soap.Decode), pooled
// envelope writer and XML canonicalizer: every byte the mediator puts
// on the wire through this codec is identical to what the pre-seam
// SOAP-only pipeline produced.
package soapcodec

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"wsupgrade/internal/httpx"
	"wsupgrade/internal/protocol"
	"wsupgrade/internal/soap"
	"wsupgrade/internal/wsdl"
)

// Codec is the SOAP 1.1 protocol codec. The zero value is ready to use.
type Codec struct{}

// Default is the pre-boxed shared instance; using it avoids re-boxing
// the zero-size struct at every configuration site.
var Default protocol.Codec = Codec{}

// contentTypeHeader is the shared Content-Type header value slice;
// response writers must not mutate it.
var contentTypeHeader = []string{soap.ContentType}

// Name implements protocol.Codec.
func (Codec) Name() string { return "soap" }

// ContentType implements protocol.Codec.
func (Codec) ContentType() string { return soap.ContentType }

// Accepts implements protocol.Codec: only a clearly JSON media type
// contradicts a SOAP unit. text/xml, application/soap+xml, absent and
// unknown types all pass — the envelope itself is the authority.
//
//wsu:noalloc
func (Codec) Accepts(contentType string) bool {
	return !protocol.ContainsFold(contentType, "json")
}

// DecodeRequest implements protocol.Codec.
func (Codec) DecodeRequest(path string, body []byte) (protocol.Request, error) {
	parsed, err := soap.Decode(body)
	if err != nil {
		return protocol.Request{}, protocol.ClientError(err.Error())
	}
	return protocol.Request{
		Op:      strings.TrimSuffix(parsed.Operation, "Request"),
		Element: parsed.Operation,
	}, nil
}

// DecodeReply implements protocol.Codec. soap.ClassifyReply reads the
// status — a 500's fault comes back as itself (protocol.IsFault), any
// other non-200 as a StatusError the dispatcher wraps with release
// context ("dispatch: release 1.0: HTTP 503") — and a 200's payload is
// its envelope's inner body XML, reported as aliasing the response
// buffer (it does when the scanner read it, and dispatch keeps the
// buffer either way).
func (Codec) DecodeReply(status int, body []byte) (payload []byte, aliases bool, err error) {
	if err := soap.ClassifyReply(status, body); err != nil {
		return nil, false, err
	}
	parsed, err := soap.Decode(body)
	if err != nil {
		return nil, false, err
	}
	return parsed.BodyXML, true, nil
}

// Equal implements protocol.Codec via XML canonicalization
// (bytes.Equal fast path; textually unequal payloads are compared as
// canonical byte streams, up to the first byte that differs).
func (Codec) Equal(a, b []byte) bool { return soap.EqualCanonical(a, b) }

// WriteBody implements protocol.Codec: the winning inner body XML is
// re-enveloped around the optional header items, a large envelope's
// length declared first.
func (Codec) WriteBody(w io.Writer, body []byte, headers ...protocol.HeaderItem) (int, error) {
	httpx.DeclareLength(w, soap.EnvelopeLen(len(body), headers...))
	return soap.WriteEnvelopeRaw(w, body, headers...)
}

// WriteError implements protocol.Codec. A *soap.Fault renders as
// itself; a *protocol.Error maps to soap:Client/soap:Server; anything
// else becomes a soap:Server fault carrying the error text. The frame
// (Content-Type, HTTP 500, fault envelope) matches the engine's
// historical writeFault exactly.
func (Codec) WriteError(w http.ResponseWriter, operation string, err error) {
	var f *soap.Fault
	if !errors.As(err, &f) {
		var pe *protocol.Error
		if errors.As(err, &pe) && pe.Client {
			f = soap.ClientFault(pe.Msg)
		} else {
			f = soap.ServerFault(err.Error())
		}
	}
	w.Header()["Content-Type"] = contentTypeHeader
	w.WriteHeader(http.StatusInternalServerError)
	_, _ = w.Write(soap.FaultEnvelope(f))
}

// WriteRejection implements protocol.Codec. Gateway-level rejections
// (405, 415) precede SOAP processing and render as plain text, exactly
// as the pre-seam engine's method check did.
func (Codec) WriteRejection(w http.ResponseWriter, status int, msg string) {
	http.Error(w, msg, status)
}

// TargetURL implements protocol.Codec: SOAP releases expose one
// endpoint and route on the envelope, so the base URL is the target.
//
//wsu:noalloc
func (Codec) TargetURL(base, operation string) string { return base }

// ---------------------------------------------------------------------------
// §6.2 confidence publishing (protocol.ConfOps)

// confQueryElement is the wire element selecting the dedicated
// confidence-query operation, precomputed once.
var confQueryElement = wsdl.ConfOperationName + "Request"

// operationConfRequest is §6.2 option 2's request payload.
type operationConfRequest struct {
	Operation string `xml:"operation"`
}

type operationConfResponse struct {
	XMLName    struct{} `xml:"OperationConfResponse"`
	Confidence float64  `xml:"confidence"`
}

// ConfQueryElement implements protocol.ConfOps.
func (Codec) ConfQueryElement() string { return confQueryElement }

// DecodeConfQuery implements protocol.ConfOps.
func (Codec) DecodeConfQuery(body []byte) (string, error) {
	parsed, err := soap.Decode(body)
	if err != nil {
		return "", protocol.ClientError(err.Error())
	}
	var req operationConfRequest
	if err := parsed.DecodeBody(&req); err != nil {
		return "", protocol.ClientError(err.Error())
	}
	return req.Operation, nil
}

// EncodeConfResponse implements protocol.ConfOps.
func (Codec) EncodeConfResponse(confidence float64) ([]byte, error) {
	return soap.Envelope(operationConfResponse{Confidence: confidence})
}

// RewriteConfVariant implements protocol.ConfOps: the "<op>Conf"
// variant's body is renamed to the underlying operation's request
// element and re-enveloped for the managed dispatch path.
func (Codec) RewriteConfVariant(body []byte, baseOp string) ([]byte, error) {
	parsed, err := soap.Decode(body)
	if err != nil {
		return nil, protocol.ClientError(err.Error())
	}
	renamed, err := soap.RenameRoot(parsed.BodyXML, baseOp+"Request")
	if err != nil {
		return nil, protocol.ClientError(err.Error())
	}
	return soap.EnvelopeRaw(renamed), nil
}

// ExtendConfVariant implements protocol.ConfOps: the winner's body
// gains the "<op>Conf" confidence element and the variant response
// root name.
func (Codec) ExtendConfVariant(winnerBody []byte, baseOp string, confidence float64) ([]byte, error) {
	extended, err := soap.InjectElement(winnerBody,
		[]byte(fmt.Sprintf("<%sConf>%.6f</%sConf>", baseOp, confidence, baseOp)))
	if err != nil {
		return nil, err
	}
	return soap.RenameRoot(extended, baseOp+"ConfResponse")
}

// ConfidenceHeader implements protocol.ConfOps: the per-response
// confidence SOAP header element (§6.2 option 1), rendered by append
// into its one allocation; the operation name is escaped as XML.
func (Codec) ConfidenceHeader(operation string, value float64) protocol.HeaderItem {
	const (
		head = `<conf:Confidence xmlns:conf="` + wsdl.UpgradeNS + `" operation="`
		mid  = `" value="`
		tail = `"/>`
	)
	b := make([]byte, 0, len(head)+len(operation)+len(mid)+len("0.000000")+len(tail))
	b = soap.AppendEscaped(append(b, head...), operation)
	b = strconv.AppendFloat(append(b, mid...), value, 'f', 6, 64)
	return append(b, tail...)
}
