package wsdl

import (
	"strings"
	"testing"
)

// paperContract builds the §6.2 example: operation1(param1 int,
// param2 string) → Op1Result string.
func paperContract() Contract {
	return Contract{
		Name:            "WebService1",
		TargetNamespace: "urn:ws1",
		Version:         "1.0",
		Operations: []Operation{
			{
				Name:   "operation1",
				Doc:    "The paper's running example operation.",
				Input:  []Param{{Name: "param1", Type: "s:int"}, {Name: "param2", Type: "s:string"}},
				Output: []Param{{Name: "Op1Result", Type: "s:string"}},
			},
		},
	}
}

func TestContractValidate(t *testing.T) {
	if err := paperContract().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Contract{
		{},
		{Name: "X"},
		{Name: "X", TargetNamespace: "urn:x"},
		{Name: "X", TargetNamespace: "urn:x", Operations: []Operation{{}}},
		{Name: "X", TargetNamespace: "urn:x", Operations: []Operation{{Name: "a"}, {Name: "a"}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid contract accepted", i)
		}
	}
}

func TestElementNames(t *testing.T) {
	op, ok := paperContract().Operation("operation1")
	if !ok {
		t.Fatal("operation1 missing")
	}
	if op.RequestElement() != "operation1Request" || op.ResponseElement() != "operation1Response" {
		t.Fatalf("element names: %s / %s", op.RequestElement(), op.ResponseElement())
	}
	if _, ok := paperContract().Operation("nope"); ok {
		t.Fatal("found nonexistent operation")
	}
}

func TestGenerateAndRoundTrip(t *testing.T) {
	c := paperContract()
	c.Releases = []ReleaseRef{{Version: "1.1", Location: "http://node1/ws11", Relation: "successor"}}
	def, err := Generate(c, "http://node1/ws1")
	if err != nil {
		t.Fatal(err)
	}
	data, err := def.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"operation1Request", "operation1Response",
		"param1", "param2", "Op1Result",
		"http://node1/ws1", "releaseRef", "1.1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("generated WSDL missing %q", want)
		}
	}

	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Endpoint() != "http://node1/ws1" {
		t.Fatalf("endpoint = %q", back.Endpoint())
	}
	ops := back.PortType.Operations
	if len(ops) != 1 || ops[0].Name != "operation1" {
		t.Fatalf("operations = %+v", ops)
	}
	refs := back.Releases
	if len(refs) != 1 || refs[0].Version != "1.1" || refs[0].Relation != "successor" {
		t.Fatalf("release refs = %+v", refs)
	}
}

func TestGenerateRejectsInvalid(t *testing.T) {
	if _, err := Generate(Contract{}, "http://x"); err == nil {
		t.Fatal("invalid contract generated")
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("not xml")); err == nil {
		t.Fatal("garbage parsed")
	}
}

// Option 1 (§6.2): the response element itself gains an Op1Conf child —
// not backward compatible.
func TestWithConfidenceInResponse(t *testing.T) {
	c, err := paperContract().WithConfidenceInResponse("operation1")
	if err != nil {
		t.Fatal(err)
	}
	op, _ := c.Operation("operation1")
	last := op.Output[len(op.Output)-1]
	if last.Name != "operation1Conf" || last.Type != "s:double" {
		t.Fatalf("confidence element = %+v", last)
	}
	// The original contract is untouched (copy semantics).
	orig, _ := paperContract().Operation("operation1")
	if len(orig.Output) != 1 {
		t.Fatal("original contract mutated")
	}
	if _, err := paperContract().WithConfidenceInResponse("nope"); err == nil {
		t.Fatal("unknown operation accepted")
	}
}

// Option 2 (§6.2): a separate OperationConf operation — backward
// compatible.
func TestWithConfidenceOperation(t *testing.T) {
	c := paperContract().WithConfidenceOperation()
	op, ok := c.Operation(ConfOperationName)
	if !ok {
		t.Fatal("OperationConf missing")
	}
	if len(op.Input) != 1 || op.Input[0].Name != "operation" {
		t.Fatalf("OperationConf input = %+v", op.Input)
	}
	if len(op.Output) != 1 || op.Output[0].Type != "s:double" {
		t.Fatalf("OperationConf output = %+v", op.Output)
	}
	// Idempotent.
	c2 := c.WithConfidenceOperation()
	if len(c2.Operations) != len(c.Operations) {
		t.Fatal("WithConfidenceOperation not idempotent")
	}
	// The old operation is untouched: backward compatible.
	if _, ok := c.Operation("operation1"); !ok {
		t.Fatal("original operation lost")
	}
}

// Option 3 (§6.2): an operation1Conf twin — backward compatible, with the
// confidence in every response.
func TestWithConfVariant(t *testing.T) {
	c, err := paperContract().WithConfVariant("operation1")
	if err != nil {
		t.Fatal(err)
	}
	v, ok := c.Operation("operation1Conf")
	if !ok {
		t.Fatal("operation1Conf missing")
	}
	if len(v.Input) != 2 {
		t.Fatalf("variant input = %+v (should mirror the original)", v.Input)
	}
	if len(v.Output) != 2 || v.Output[1].Name != "operation1Conf" {
		t.Fatalf("variant output = %+v", v.Output)
	}
	if _, ok := c.Operation("operation1"); !ok {
		t.Fatal("original operation lost — variant must be additive")
	}
	if _, err := paperContract().WithConfVariant("nope"); err == nil {
		t.Fatal("unknown operation accepted")
	}
	// Idempotent.
	c2, err := c.WithConfVariant("operation1")
	if err != nil {
		t.Fatal(err)
	}
	if len(c2.Operations) != len(c.Operations) {
		t.Fatal("WithConfVariant not idempotent")
	}
}

func TestGeneratedSchemaShape(t *testing.T) {
	def, err := Generate(paperContract(), "http://node1/ws")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Types.Schema.Elements) != 2 {
		t.Fatalf("schema elements = %d, want request+response", len(def.Types.Schema.Elements))
	}
	req := def.Types.Schema.Elements[0]
	if req.Name != "operation1Request" || len(req.Sequence) != 2 {
		t.Fatalf("request element = %+v", req)
	}
	if len(def.Messages) != 2 {
		t.Fatalf("messages = %d", len(def.Messages))
	}
	if def.Binding.Style != "document" || !strings.Contains(def.Binding.Transport, "soap/http") {
		t.Fatalf("binding = %+v", def.Binding)
	}
	if len(def.Binding.Ops) != 1 || !strings.Contains(def.Binding.Ops[0].SOAPAction, "operation1") {
		t.Fatalf("binding ops = %+v", def.Binding.Ops)
	}
}
