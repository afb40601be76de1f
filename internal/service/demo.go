package service

import (
	"context"
	"fmt"

	"wsupgrade/internal/wsdl"
)

// The demo service mirrors the paper's §6.2 running example — a service
// publishing "operation1(param1 int, param2 string) → Op1Result string" —
// plus an arithmetic operation, so examples, commands and integration
// tests all exercise the same realistic contract.

// The demo messages carry both XML and JSON tags: a release's SOAP face
// and its REST/JSON face decode and encode the same values.

// Operation1Request is the §6.2 example request element.
type Operation1Request struct {
	XMLName struct{} `xml:"operation1Request" json:"-"`
	Param1  int      `xml:"param1" json:"param1"`
	Param2  string   `xml:"param2" json:"param2"`
}

// Operation1Response is the §6.2 example response element.
type Operation1Response struct {
	XMLName   struct{} `xml:"operation1Response" json:"-"`
	Op1Result string   `xml:"Op1Result" json:"Op1Result"`
}

// AddRequest asks for the sum of two integers.
type AddRequest struct {
	XMLName struct{} `xml:"addRequest" json:"-"`
	A       int      `xml:"a" json:"a"`
	B       int      `xml:"b" json:"b"`
}

// AddResponse carries the sum.
type AddResponse struct {
	XMLName struct{} `xml:"addResponse" json:"-"`
	Sum     int      `xml:"sum" json:"sum"`
}

// DemoContract returns the demo service contract at a given version.
func DemoContract(version string) wsdl.Contract {
	return wsdl.Contract{
		Name:            "WebService1",
		TargetNamespace: "urn:wsupgrade:demo",
		Version:         version,
		Operations: []wsdl.Operation{
			{
				Name:   "operation1",
				Doc:    "The paper's running example operation.",
				Input:  []wsdl.Param{{Name: "param1", Type: "s:int"}, {Name: "param2", Type: "s:string"}},
				Output: []wsdl.Param{{Name: "Op1Result", Type: "s:string"}},
			},
			{
				Name:   "add",
				Doc:    "Integer addition.",
				Input:  []wsdl.Param{{Name: "a", Type: "s:int"}, {Name: "b", Type: "s:int"}},
				Output: []wsdl.Param{{Name: "sum", Type: "s:int"}},
			},
		},
	}
}

// DemoBehaviours returns the demo operations' implementations, including
// their plausible-but-wrong failure modes used for NER injection.
func DemoBehaviours() map[string]Behaviour {
	return map[string]Behaviour{
		"operation1": {
			Handler: func(ctx context.Context, decode func(any) error) (any, error) {
				var in Operation1Request
				if err := decode(&in); err != nil {
					return nil, err
				}
				return Operation1Response{Op1Result: fmt.Sprintf("%s/%d", in.Param2, in.Param1*2)}, nil
			},
			Faulty: func(ctx context.Context, decode func(any) error) (any, error) {
				var in Operation1Request
				if err := decode(&in); err != nil {
					return nil, err
				}
				// Off-by-one in the doubling: plausible, wrong, and only
				// detectable by comparing against a diverse channel.
				return Operation1Response{Op1Result: fmt.Sprintf("%s/%d", in.Param2, in.Param1*2+1)}, nil
			},
		},
		"add": {
			Handler: func(ctx context.Context, decode func(any) error) (any, error) {
				var in AddRequest
				if err := decode(&in); err != nil {
					return nil, err
				}
				return AddResponse{Sum: in.A + in.B}, nil
			},
			Faulty: func(ctx context.Context, decode func(any) error) (any, error) {
				var in AddRequest
				if err := decode(&in); err != nil {
					return nil, err
				}
				return AddResponse{Sum: in.A + in.B + 1}, nil
			},
		},
	}
}
