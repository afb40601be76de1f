package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"
)

// checkRewrites holds RenameRoot and InjectElement to the parent
// commit's versions (below, verbatim but for their names): on every
// input the parent accepted, the output is byte-identical, with two
// named exceptions (parentMisreads):
//
//   - a fragment that is not well-formed — encoding/xml cannot read it
//     to the end, or finds no element in it. The parent's RenameRoot
//     checked only the first token and then renamed by byte search, so
//     neither output means anything there; only the absence of a panic
//     is checked.
//   - a well-formed fragment on which the parent broke its own
//     contract while the new version keeps it: the parent's output is
//     not well-formed, or its root is not the renamed (for
//     InjectElement: the same) element. The parent found the root as
//     the first '<' followed by a name (an element named inside a
//     comment, CDATA section or PI before the root was renamed instead),
//     its end tag as the last "</name>" byte run (a root closed as
//     "</a >" or followed by "</a>" in a comment or a sibling kept or
//     lost the wrong one), and closed an expanded self-closing root with its local
//     name alone (a prefixed root came out mismatched).
func checkRewrites(t *testing.T, fragment []byte) {
	t.Helper()
	const newLocal = "RenamedRoot"
	child := []byte(`<injected>1</injected>`)
	root, wellFormed := refRoot(bytes.TrimSpace(fragment))
	check := func(what string, got []byte, gerr error, want []byte, werr error, keeps func([]byte) bool) {
		t.Helper()
		if werr != nil || (gerr == nil && bytes.Equal(got, want)) || !wellFormed {
			return
		}
		if gerr == nil && keeps(got) && !keeps(want) {
			return
		}
		t.Fatalf("%s differs from the parent's\ninput:  %q\ngot:    %q, %v\nparent: %q", what, clip(fragment), clip(got), gerr, clip(want))
	}
	got, gerr := RenameRoot(fragment, newLocal)
	want, werr := parentRenameRoot(fragment, newLocal)
	check("RenameRoot", got, gerr, want, werr, func(out []byte) bool {
		name, ok := refRoot(out)
		return ok && name == newLocal
	})
	got, gerr = InjectElement(fragment, child)
	want, werr = parentInjectElement(fragment, child)
	check("InjectElement", got, gerr, want, werr, func(out []byte) bool {
		name, ok := refRoot(out)
		return ok && name == root
	})
}

// refRoot reads b with encoding/xml: the local name of its first
// element, and whether there is one and the whole of b reads cleanly.
func refRoot(b []byte) (string, bool) {
	dec := xml.NewDecoder(bytes.NewReader(b))
	name := ""
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return name, name != ""
		}
		if err != nil {
			return name, false
		}
		if se, ok := tok.(xml.StartElement); ok && name == "" {
			name = se.Name.Local
		}
	}
}

// rewriteCorpus are fragments for checkRewrites beyond the envelopes'
// bodies: the shapes the parent handled and the ones it misread.
var rewriteCorpus = []string{
	`<Op1Response><Op1Result>hi</Op1Result></Op1Response>`,
	`<Empty/>`, `<Empty a="1" />`, `  <e>x</e>  `,
	`<ns:op xmlns:ns="urn:x"><a>1</a></ns:op>`,
	`<!-- lead --><?pi x?><op><a/></op>`,
	`text first<op/>`,
	`<![CDATA[x]]><op>1</op>`,
	`<!DOCTYPE op [<!ELEMENT op ANY>]><op/>`,
	`<op><op>1</op></op>`,
	`<op a="x>y"><b c='/>'/></op>`,
	`<op>` + strings.Repeat("<d>", 40) + strings.Repeat("</d>", 40) + `</op>`,
	`<op/><trailing/>`,
	`<op>1</op><!-- after -->`,
	`<op><unclosed>`,
	`<op><a></b></op>`,
	`</op>`, `no element`, ``,
	// The parent's misreads.
	`<!-- <x> --><op/>`,
	`<op></op >`,
	`<op><op></op></op >`,
	`<op></op><!-- </op> -->`,
	`<p:op xmlns:p="urn:p"/>`,
}

func TestRewritesMatchParent(t *testing.T) {
	for _, f := range rewriteCorpus {
		checkRewrites(t, []byte(f))
	}
	for _, env := range commonForm {
		p, err := Decode([]byte(env))
		if err != nil {
			t.Fatal(err)
		}
		checkRewrites(t, p.BodyXML)
	}
}

// ---------------------------------------------------------------------------
// The parent commit's RenameRoot and InjectElement, verbatim but for the
// names (firstElement and isTagDelim came with them).

func parentFirstElement(inner []byte) (xml.Name, bool) {
	dec := xml.NewDecoder(bytes.NewReader(inner))
	for {
		tok, err := dec.Token()
		if err != nil {
			return xml.Name{}, false
		}
		if se, ok := tok.(xml.StartElement); ok {
			return se.Name, true
		}
	}
}

// RenameRoot renames the first element of the fragment (and its matching
// end tag) to newLocal, dropping any namespace prefix from the tag name.
// The upgrade middleware uses it to translate "<op>Conf" variant requests
// (§6.2 option 3) onto the underlying operation and back.
func parentRenameRoot(fragment []byte, newLocal string) ([]byte, error) {
	trimmed := bytes.TrimSpace(fragment)
	if _, ok := parentFirstElement(trimmed); !ok {
		return nil, ErrEmptyBody
	}
	// Locate the root start tag: the first "<" opening a named element
	// (skipping comments, PIs and directives).
	start := -1
	for i := 0; i < len(trimmed)-1; i++ {
		if trimmed[i] != '<' {
			continue
		}
		switch trimmed[i+1] {
		case '?', '!', '/':
			continue
		}
		start = i
		break
	}
	if start < 0 {
		return nil, ErrEmptyBody
	}
	// Extract the raw tag name as written (may include a prefix).
	nameEnd := start + 1
	for nameEnd < len(trimmed) && !parentIsTagDelim(trimmed[nameEnd]) {
		nameEnd++
	}
	written := string(trimmed[start+1 : nameEnd])

	var b bytes.Buffer
	b.Write(trimmed[:start+1])
	b.WriteString(newLocal)
	rest := trimmed[nameEnd:]
	closeTag := []byte("</" + written + ">")
	if idx := bytes.LastIndex(rest, closeTag); idx >= 0 {
		b.Write(rest[:idx])
		b.WriteString("</" + newLocal + ">")
		b.Write(rest[idx+len(closeTag):])
	} else {
		b.Write(rest) // self-closing or unmatched: only the start tag renames
	}
	return b.Bytes(), nil
}

func parentIsTagDelim(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '>' || c == '/'
}

// InjectElement appends a child element (rendered from raw XML) at the end
// of the first element of the given fragment and returns the new fragment.
// The §6.2 "publish the confidence in the response" mechanism uses it to
// add the confidence element to an operation response without
// understanding its schema.
func parentInjectElement(fragment, childXML []byte) ([]byte, error) {
	trimmed := bytes.TrimSpace(fragment)
	if len(trimmed) == 0 {
		return nil, ErrEmptyBody
	}
	// Find the matching close of the first (root) element and insert
	// before it. Self-closing roots are expanded.
	dec := xml.NewDecoder(bytes.NewReader(trimmed))
	depth := 0
	var rootEnd int64 = -1
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("soap: injecting element: %w", err)
		}
		switch tok.(type) {
		case xml.StartElement:
			depth++
		case xml.EndElement:
			depth--
			if depth == 0 {
				rootEnd = dec.InputOffset()
			}
		}
		if rootEnd >= 0 {
			break
		}
	}
	if rootEnd < 0 {
		return nil, fmt.Errorf("%w: no complete root element", ErrEmptyBody)
	}
	closeStart := int64(bytes.LastIndex(trimmed[:rootEnd], []byte("<")))
	if closeStart < 0 {
		return nil, fmt.Errorf("%w: malformed root element", ErrEmptyBody)
	}
	if strings.HasSuffix(string(bytes.TrimSpace(trimmed[closeStart:rootEnd])), "/>") {
		// Self-closing root: <a/> → <a>child</a>. (Attribute values
		// containing a literal "/>" would defeat this scan; the
		// machine-generated payloads this proxies never contain one.)
		name, ok := parentFirstElement(trimmed)
		if !ok {
			return nil, ErrEmptyBody
		}
		selfClose := bytes.LastIndex(trimmed[:rootEnd], []byte("/>"))
		if selfClose < 0 {
			return nil, fmt.Errorf("%w: malformed self-closing root", ErrEmptyBody)
		}
		var b bytes.Buffer
		b.Write(trimmed[:selfClose])
		b.WriteByte('>')
		b.Write(childXML)
		b.WriteString("</" + name.Local + ">")
		b.Write(trimmed[rootEnd:])
		return b.Bytes(), nil
	}
	var b bytes.Buffer
	b.Write(trimmed[:closeStart])
	b.Write(childXML)
	b.Write(trimmed[closeStart:])
	return b.Bytes(), nil
}
