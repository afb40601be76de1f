// Package wsdl models WSDL 1.1 service descriptions: enough of the
// standard to publish the paper's Web Services (types/schema, messages,
// portType, binding, service/port) and to express the §6.2 mechanisms for
// publishing *confidence in dependability* through the service contract:
//
//  1. extending an operation's response element with a confidence value
//     (breaks backward compatibility);
//  2. adding a dedicated OperationConf operation that returns the
//     confidence of a named operation;
//  3. adding a parallel "<operation>Conf" variant whose response carries
//     the result plus the confidence (backward compatible).
//
// It also models the §7.2 upgrade-notification extension: a release
// reference in the WSDL pointing at the endpoint of another release of
// the same service, so consumers can discover an upgrade while both
// releases stay operational.
package wsdl

import (
	"encoding/xml"
	"errors"
	"fmt"
	"net/http"
	"strings"
)

// UpgradeNS is this project's extension namespace for release
// references and confidence annotations.
const UpgradeNS = "urn:wsupgrade:extensions"

// ErrBadContract reports an invalid service contract.
var ErrBadContract = errors.New("wsdl: bad contract")

// Param is one named, typed element of a request or response.
type Param struct {
	// Name is the element name.
	Name string
	// Type is the XSD type, e.g. "s:int", "s:string", "s:double".
	Type string
}

// Operation describes one operation: its input and output parts.
type Operation struct {
	// Name is the operation name, e.g. "operation1".
	Name string
	// Doc optionally documents the operation.
	Doc string
	// Input lists the request parameters.
	Input []Param
	// Output lists the response elements.
	Output []Param
}

// RequestElement returns the name of the request body element
// ("<Name>Request"), which is also the RPC dispatch key.
func (o Operation) RequestElement() string { return o.Name + "Request" }

// ResponseElement returns the name of the response body element.
func (o Operation) ResponseElement() string { return o.Name + "Response" }

// ReleaseRef is the §7.2 extension: a pointer from one release's WSDL to
// another operational release of the same service.
type ReleaseRef struct {
	// Version identifies the referenced release, e.g. "1.1".
	Version string
	// Location is the referenced release's endpoint URL.
	Location string
	// Relation describes the reference: "successor" or "predecessor".
	Relation string
}

// Contract is the abstract service description from which a WSDL document
// is generated.
type Contract struct {
	// Name is the service name, e.g. "WebService1".
	Name string
	// TargetNamespace qualifies the service's own names.
	TargetNamespace string
	// Version is the release version, carried as documentation and used
	// by the upgrade machinery to distinguish releases (§3.2 requires
	// releases to be at least distinguishable).
	Version string
	// Operations lists the service operations.
	Operations []Operation
	// Releases lists other operational releases of this service (§7.2).
	Releases []ReleaseRef
}

// Validate checks the contract is generable.
func (c Contract) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("%w: empty service name", ErrBadContract)
	}
	if c.TargetNamespace == "" {
		return fmt.Errorf("%w: empty target namespace", ErrBadContract)
	}
	if len(c.Operations) == 0 {
		return fmt.Errorf("%w: no operations", ErrBadContract)
	}
	seen := map[string]bool{}
	for _, op := range c.Operations {
		if op.Name == "" {
			return fmt.Errorf("%w: unnamed operation", ErrBadContract)
		}
		if seen[op.Name] {
			return fmt.Errorf("%w: duplicate operation %q", ErrBadContract, op.Name)
		}
		seen[op.Name] = true
	}
	return nil
}

// Operation returns the named operation, if present.
func (c Contract) Operation(name string) (Operation, bool) {
	for _, op := range c.Operations {
		if op.Name == name {
			return op, true
		}
	}
	return Operation{}, false
}

// ---------------------------------------------------------------------------
// §6.2 confidence-publishing transformations on contracts.

// WithConfidenceInResponse returns a copy of the contract in which the
// named operation's response is extended with a confidence element
// (option 1 of §6.2). The new description is NOT backward compatible with
// the old one — acceptable for newly deployed services only.
func (c Contract) WithConfidenceInResponse(operation string) (Contract, error) {
	out := c.clone()
	for i, op := range out.Operations {
		if op.Name != operation {
			continue
		}
		op.Output = append(append([]Param(nil), op.Output...),
			Param{Name: op.Name + "Conf", Type: "s:double"})
		out.Operations[i] = op
		return out, nil
	}
	return Contract{}, fmt.Errorf("%w: operation %q not found", ErrBadContract, operation)
}

// ConfOperationName is the dedicated confidence query operation of §6.2
// option 2.
const ConfOperationName = "OperationConf"

// WithConfidenceOperation returns a copy of the contract extended with
// the OperationConf operation (option 2 of §6.2): it takes an operation
// name and returns the provider's confidence in it. Backward compatible.
func (c Contract) WithConfidenceOperation() Contract {
	out := c.clone()
	if _, exists := out.Operation(ConfOperationName); exists {
		return out
	}
	out.Operations = append(out.Operations, Operation{
		Name: ConfOperationName,
		Doc:  "Returns the published confidence in the named operation's correctness.",
		Input: []Param{
			{Name: "operation", Type: "s:string"},
		},
		Output: []Param{
			{Name: "confidence", Type: "s:double"},
		},
	})
	return out
}

// WithConfVariant returns a copy of the contract extended with an
// "<operation>Conf" twin of the named operation whose response carries
// the original result plus the confidence (option 3 of §6.2): confidence-
// conscious consumers switch to the variant, existing consumers are
// untouched.
func (c Contract) WithConfVariant(operation string) (Contract, error) {
	out := c.clone()
	op, ok := out.Operation(operation)
	if !ok {
		return Contract{}, fmt.Errorf("%w: operation %q not found", ErrBadContract, operation)
	}
	variant := Operation{
		Name:  op.Name + "Conf",
		Doc:   fmt.Sprintf("As %s, with the response extended by the confidence in its correctness.", op.Name),
		Input: append([]Param(nil), op.Input...),
		Output: append(append([]Param(nil), op.Output...),
			Param{Name: op.Name + "Conf", Type: "s:double"}),
	}
	if _, exists := out.Operation(variant.Name); exists {
		return out, nil
	}
	out.Operations = append(out.Operations, variant)
	return out, nil
}

func (c Contract) clone() Contract {
	out := c
	out.Operations = make([]Operation, len(c.Operations))
	for i, op := range c.Operations {
		op.Input = append([]Param(nil), op.Input...)
		op.Output = append([]Param(nil), op.Output...)
		out.Operations[i] = op
	}
	out.Releases = append([]ReleaseRef(nil), c.Releases...)
	return out
}

// ---------------------------------------------------------------------------
// Document model (serializable WSDL).

// Definitions is the WSDL root element.
type Definitions struct {
	XMLName         xml.Name    `xml:"definitions"`
	Name            string      `xml:"name,attr"`
	TargetNamespace string      `xml:"targetNamespace,attr"`
	Documentation   string      `xml:"documentation,omitempty"`
	Types           Types       `xml:"types"`
	Messages        []Message   `xml:"message"`
	PortType        PortType    `xml:"portType"`
	Binding         Binding     `xml:"binding"`
	Service         Service     `xml:"service"`
	Releases        []RelRefXML `xml:"releaseRef,omitempty"`
}

// RelRefXML serializes a ReleaseRef extension element.
type RelRefXML struct {
	Version  string `xml:"version,attr"`
	Location string `xml:"location,attr"`
	Relation string `xml:"relation,attr"`
}

// Types wraps the inline schema.
type Types struct {
	Schema Schema `xml:"schema"`
}

// Schema is a minimal XSD schema with top-level elements.
type Schema struct {
	TargetNamespace string      `xml:"targetNamespace,attr"`
	Elements        []SchemaElt `xml:"element"`
}

// SchemaElt declares one element with a sequence of child elements.
type SchemaElt struct {
	Name     string        `xml:"name,attr"`
	Sequence []SequenceElt `xml:"complexType>sequence>element"`
}

// SequenceElt is one child element declaration.
type SequenceElt struct {
	MinOccurs int    `xml:"minOccurs,attr"`
	MaxOccurs int    `xml:"maxOccurs,attr"`
	Name      string `xml:"name,attr"`
	Type      string `xml:"type,attr"`
}

// Message names a WSDL message with a single body part.
type Message struct {
	Name string      `xml:"name,attr"`
	Part MessagePart `xml:"part"`
}

// MessagePart binds the message to a schema element.
type MessagePart struct {
	Name    string `xml:"name,attr"`
	Element string `xml:"element,attr"`
}

// PortType lists the abstract operations.
type PortType struct {
	Name       string       `xml:"name,attr"`
	Operations []PortTypeOp `xml:"operation"`
}

// PortTypeOp is one abstract operation with input and output messages.
type PortTypeOp struct {
	Name          string `xml:"name,attr"`
	Documentation string `xml:"documentation,omitempty"`
	Input         IOBind `xml:"input"`
	Output        IOBind `xml:"output"`
}

// IOBind names the message of an input or output.
type IOBind struct {
	Message string `xml:"message,attr"`
}

// Binding ties the portType to SOAP/HTTP.
type Binding struct {
	Name      string      `xml:"name,attr"`
	Type      string      `xml:"type,attr"`
	Transport string      `xml:"transport,attr"`
	Style     string      `xml:"style,attr"`
	Ops       []BindingOp `xml:"operation"`
}

// BindingOp declares the SOAPAction of one operation.
type BindingOp struct {
	Name       string `xml:"name,attr"`
	SOAPAction string `xml:"soapAction,attr"`
}

// Service exposes the concrete endpoint.
type Service struct {
	Name string `xml:"name,attr"`
	Port Port   `xml:"port"`
}

// Port binds the binding to a network location.
type Port struct {
	Name     string `xml:"name,attr"`
	Binding  string `xml:"binding,attr"`
	Location string `xml:"location,attr"`
}

// Generate renders the contract as a WSDL document bound to the given
// endpoint location.
func Generate(c Contract, location string) (*Definitions, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	def := &Definitions{
		Name:            c.Name,
		TargetNamespace: c.TargetNamespace,
		Documentation:   fmt.Sprintf("%s release %s", c.Name, c.Version),
		Types:           Types{Schema: Schema{TargetNamespace: c.TargetNamespace}},
		PortType:        PortType{Name: c.Name + "PortType"},
		Binding: Binding{
			Name:      c.Name + "SoapBinding",
			Type:      "tns:" + c.Name + "PortType",
			Transport: "http://schemas.xmlsoap.org/soap/http",
			Style:     "document",
		},
		Service: Service{
			Name: c.Name,
			Port: Port{
				Name:     c.Name + "Port",
				Binding:  "tns:" + c.Name + "SoapBinding",
				Location: location,
			},
		},
	}
	for _, r := range c.Releases {
		def.Releases = append(def.Releases, RelRefXML(r))
	}
	for _, op := range c.Operations {
		reqElt := SchemaElt{Name: op.RequestElement()}
		for _, p := range op.Input {
			reqElt.Sequence = append(reqElt.Sequence, SequenceElt{MaxOccurs: 1, Name: p.Name, Type: p.Type})
		}
		respElt := SchemaElt{Name: op.ResponseElement()}
		for _, p := range op.Output {
			respElt.Sequence = append(respElt.Sequence, SequenceElt{MaxOccurs: 1, Name: p.Name, Type: p.Type})
		}
		def.Types.Schema.Elements = append(def.Types.Schema.Elements, reqElt, respElt)
		def.Messages = append(def.Messages,
			Message{Name: op.Name + "In", Part: MessagePart{Name: "parameters", Element: "tns:" + op.RequestElement()}},
			Message{Name: op.Name + "Out", Part: MessagePart{Name: "parameters", Element: "tns:" + op.ResponseElement()}},
		)
		def.PortType.Operations = append(def.PortType.Operations, PortTypeOp{
			Name:          op.Name,
			Documentation: op.Doc,
			Input:         IOBind{Message: "tns:" + op.Name + "In"},
			Output:        IOBind{Message: "tns:" + op.Name + "Out"},
		})
		def.Binding.Ops = append(def.Binding.Ops, BindingOp{
			Name:       op.Name,
			SOAPAction: strings.TrimSuffix(c.TargetNamespace, "/") + "/" + op.Name,
		})
	}
	return def, nil
}

// Marshal renders the document as XML with header.
func (d *Definitions) Marshal() ([]byte, error) {
	data, err := xml.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("wsdl: marshalling: %w", err)
	}
	return append([]byte(xml.Header), data...), nil
}

// Parse decodes a WSDL document produced by Generate.
func Parse(data []byte) (*Definitions, error) {
	var d Definitions
	if err := xml.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("wsdl: parsing: %w", err)
	}
	return &d, nil
}

// Endpoint returns the concrete service location.
func (d *Definitions) Endpoint() string { return d.Service.Port.Location }

// Serve answers a GET of the contract's WSDL document — every service
// surface's /wsdl route. The document's endpoint is the address the
// request came in on, under the scheme a consumer can dial (see
// requestScheme).
func Serve(w http.ResponseWriter, r *http.Request, c Contract) {
	def, err := Generate(c, requestScheme(r)+"://"+r.Host+"/")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	data, err := def.Marshal()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/xml; charset=utf-8")
	_, _ = w.Write(data)
}

// requestScheme derives the scheme consumers should use to reach the
// service a request arrived at: https when it came over TLS, or
// whatever a trusted reverse proxy reports in X-Forwarded-Proto (the
// first hop of a chain). A published WSDL endpoint address must match
// what the consumer can actually dial.
func requestScheme(r *http.Request) string {
	scheme := "http"
	if r.TLS != nil {
		scheme = "https"
	}
	if proto := r.Header.Get("X-Forwarded-Proto"); proto != "" {
		if i := strings.IndexByte(proto, ','); i >= 0 {
			proto = proto[:i] // first hop wins in a proxy chain
		}
		switch strings.ToLower(strings.TrimSpace(proto)) {
		case "http":
			scheme = "http"
		case "https":
			scheme = "https"
		}
	}
	return scheme
}
