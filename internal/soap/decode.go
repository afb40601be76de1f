// Reading an envelope: Decode, and the byte scanner under it.
//
// The mediator needs two things from a message it intercepts: the
// invoked operation — the local name of the first Body child — and the
// raw inner XML of the Body, which it judges and re-wraps verbatim.
// Decode reads a common-form envelope with a byte scanner: no DOM, no
// allocation, the spans aliasing the input. The scanner is conservative:
// the moment a message looks unusual (uncommon namespace plumbing, stray
// text, a DOCTYPE, a Fault to decode, truncated or mismatched markup) it
// declines, and Decode parses the message with encoding/xml instead.
//
// Where the scanner accepts, it agrees with the parse on the operation,
// both spans and the fault verdict — FuzzDecode holds it to that. It
// reads markup, not content, so its one slack is in the other
// direction: a message whose only fault lies in character data or
// attribute values (an undefined entity, broken attribute syntax, bytes
// that are not XML characters, a declaration of another version or
// encoding) is accepted where the parse would refuse it. decode_test.go
// names each such class in laxerByDesign.

package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"sync/atomic"
	"unicode/utf8"
)

// Parsed is a decoded SOAP envelope.
type Parsed struct {
	// HeaderXML is the raw inner XML of the Header element (nil if
	// absent or empty).
	HeaderXML []byte
	// BodyXML is the raw inner XML of the Body element.
	BodyXML []byte
	// Operation is the local name of the first Body child, which names
	// the invoked operation for RPC dispatch.
	Operation string
	// Fault is set exactly when the first Body child is a SOAP 1.1
	// Fault.
	Fault *Fault
}

// Decode reads a SOAP 1.1 envelope. When the scanner read it, the spans
// alias data: if data is the contents of a pooled buffer (pool.Buf), a
// caller keeping them past its own reference must Retain the buffer or
// copy the bytes — dispatch carries the buffer alongside the reply
// (adjudicate.Reply.Buf) for exactly this reason.
func Decode(data []byte) (Parsed, error) {
	if len(data) > maxMessageBytes {
		return Parsed{}, fmt.Errorf("%w: message of %d bytes exceeds limit", ErrNotSOAP, len(data))
	}
	if p, ok := scan(data); ok {
		return p, nil
	}
	return parse(data)
}

// DecodeBody unmarshals the first body element into v.
func (p *Parsed) DecodeBody(v interface{}) error {
	if err := xml.Unmarshal(p.BodyXML, v); err != nil {
		return fmt.Errorf("soap: decoding body: %w", err)
	}
	return nil
}

// ---------------------------------------------------------------------------
// The parse: Decode's fallback and FuzzDecode's reference

type inEnvelope struct {
	XMLName xml.Name `xml:"Envelope"`
	Header  struct {
		Inner []byte `xml:",innerxml"`
	} `xml:"Header"`
	Body struct {
		Inner    []byte    `xml:",innerxml"`
		Children []inChild `xml:",any"`
	} `xml:"Body"`
}

// inChild is one Body child: its name, resolved against the whole
// envelope's namespaces, and a Fault's fields should it be one.
type inChild struct {
	XMLName xml.Name
	Code    string `xml:"faultcode"`
	String  string `xml:"faultstring"`
	Actor   string `xml:"faultactor"`
	Detail  string `xml:"detail"`
}

var faultName = xml.Name{Space: EnvelopeNS, Local: "Fault"}

func parse(data []byte) (Parsed, error) {
	var env inEnvelope
	if err := xml.Unmarshal(data, &env); err != nil {
		return Parsed{}, fmt.Errorf("%w: %v", ErrNotSOAP, err)
	}
	if env.XMLName.Space != EnvelopeNS {
		return Parsed{}, fmt.Errorf("%w: root namespace %q", ErrNotSOAP, env.XMLName.Space)
	}
	if len(env.Body.Children) == 0 {
		return Parsed{}, ErrEmptyBody
	}
	first := env.Body.Children[0]
	p := Parsed{BodyXML: env.Body.Inner, Operation: first.XMLName.Local}
	if len(env.Header.Inner) > 0 {
		p.HeaderXML = env.Header.Inner
	}
	if first.XMLName == faultName {
		p.Fault = &Fault{Code: first.Code, String: first.String, Actor: first.Actor, Detail: first.Detail}
	}
	return p, nil
}

// ---------------------------------------------------------------------------
// The scanner

// scan reads a common-form envelope without a DOM. ok=false means "not
// cheaply", never "invalid".
func scan(data []byte) (p Parsed, ok bool) {
	s := scanner{data: data}
	if !s.enterBody() {
		return p, false
	}
	innerStart := s.pos
	if !s.skipMisc() {
		return p, false
	}
	name, _, isEnd, _, ok := s.readTag()
	if !ok || isEnd {
		return p, false
	}
	_, local := splitName(name)
	if string(local) == "Fault" {
		return p, false // a fault's fields are the parse's to decode
	}
	closeStart, ok := s.findSubtreeClose(innerStart, s.bodyName)
	if !ok {
		return p, false
	}
	// The envelope itself must close properly too: an accepted scan
	// vouches for the whole structural tree.
	if !s.skipMisc() {
		return p, false
	}
	name, _, isEnd, _, ok = s.readTag()
	if !ok || !isEnd || !bytes.Equal(name, s.envName) {
		return p, false
	}
	p.HeaderXML, p.BodyXML = s.headerInner, data[innerStart:closeStart]
	p.Operation = internName(local)
	return p, true
}

// internName converts an operation's local name to a string through a
// small interning cache: a service exposes a handful of operations, each
// read on every proxied request, and the per-request string copy was
// measurable on the hot path. The cache is copy-on-write (reads are one
// atomic load plus an allocation-free map lookup) and capped so
// attacker-chosen operation names cannot grow it without bound — past
// the cap, names fall back to a plain copy.
const maxInterned = 256

var interned atomic.Pointer[map[string]string]

func internName(b []byte) string {
	m := interned.Load()
	if m != nil {
		if s, ok := (*m)[string(b)]; ok { // no-alloc lookup
			return s
		}
	}
	s := string(b)
	for {
		old := interned.Load()
		n := 0
		if old != nil {
			if cached, ok := (*old)[s]; ok {
				return cached
			}
			n = len(*old)
		}
		if n >= maxInterned {
			return s
		}
		next := make(map[string]string, n+1)
		if old != nil {
			for k, v := range *old {
				next[k] = v
			}
		}
		next[s] = s
		if interned.CompareAndSwap(old, &next) {
			return s
		}
	}
}

// scanner is a minimal forward-only reader of XML markup.
type scanner struct {
	data []byte
	pos  int
	// headerInner is the raw inner XML of a Header element skipped by
	// enterBody (nil when the envelope has none, or an empty one).
	headerInner []byte
	// bodyName and envName are the Body and Envelope elements' raw tag
	// names as written (with prefix), recorded by enterBody for
	// close-tag matching.
	bodyName []byte
	envName  []byte
}

var (
	commentOpen = []byte("<!--")
	cdataOpen   = []byte("<![CDATA[")
	piOpen      = []byte("<?")
)

// enterBody positions the scanner just after the Body start tag of a
// SOAP 1.1 envelope, verifying the envelope namespace on the way.
func (s *scanner) enterBody() bool {
	if !s.skipMisc() {
		return false
	}
	name, attrs, isEnd, selfClose, ok := s.readTag()
	if !ok || isEnd || selfClose {
		return false
	}
	prefix, local := splitName(name)
	// encoding/xml binds the xml and xmlns prefixes itself, whatever
	// the attributes say.
	if string(local) != "Envelope" || string(prefix) == "xml" || string(prefix) == "xmlns" ||
		!declaresEnvelopeNS(attrs, prefix) {
		return false
	}
	s.envName = name
	// Walk the Envelope's children: skip a Header subtree, stop inside
	// Body. Anything else is unusual enough for the parse.
	for {
		if !s.skipMisc() {
			return false
		}
		name, _, isEnd, selfClose, ok = s.readTag()
		if !ok || isEnd {
			return false
		}
		switch _, local := splitName(name); string(local) {
		case "Header":
			// A later Header replaces an earlier one, as it does for
			// the parse.
			s.headerInner = nil
			if selfClose {
				continue
			}
			headerStart := s.pos
			closeStart, ok := s.findSubtreeClose(s.pos, name)
			if !ok {
				return false
			}
			if closeStart > headerStart {
				s.headerInner = s.data[headerStart:closeStart]
			}
		case "Body":
			s.bodyName = name
			return !selfClose
		default:
			return false
		}
	}
}

// skipMisc advances past whitespace, comments and processing
// instructions, stopping at the next tag. It reports false on anything
// else (stray text, DOCTYPE, CDATA, truncation).
func (s *scanner) skipMisc() bool {
	for s.pos < len(s.data) {
		rest := s.data[s.pos:]
		switch {
		case isSpace(rest[0]):
			s.pos++
		case rest[0] != '<' || len(rest) < 2:
			return false
		case rest[1] == '?':
			if !s.skipPI() {
				return false
			}
		case rest[1] != '!':
			return true
		case !bytes.HasPrefix(rest, commentOpen) || !s.skipComment():
			return false // a DOCTYPE, CDATA or a broken comment
		}
	}
	return false
}

// skipComment moves past the comment opening at pos. As for
// encoding/xml, a comment ends at its first "--", which must be the
// start of "-->".
func (s *scanner) skipComment() bool {
	body := s.data[s.pos+len(commentOpen):]
	end := bytes.Index(body, []byte("--"))
	if end < 0 || end+2 >= len(body) || body[end+2] != '>' {
		return false
	}
	s.pos += len(commentOpen) + end + 3
	return true
}

// skipPI moves past the processing instruction opening at pos: a target
// name, then anything up to "?>".
func (s *scanner) skipPI() bool {
	i, _ := nameEnd(s.data, s.pos+len(piOpen))
	if i < 0 {
		return false
	}
	end := bytes.Index(s.data[i:], []byte("?>"))
	if end < 0 {
		return false
	}
	s.pos = i + end + 2
	return true
}

// skipCDATA moves past the CDATA section opening at pos.
func (s *scanner) skipCDATA() bool {
	end := bytes.Index(s.data[s.pos+len(cdataOpen):], []byte("]]>"))
	if end < 0 {
		return false
	}
	s.pos += len(cdataOpen) + end + 3
	return true
}

// nameByte marks the bytes encoding/xml reads as part of a name. A byte
// past ASCII is taken as is: whether it spells a letter is the parse's
// to check.
var nameByte = func() (t [256]bool) {
	for c := range t {
		t[c] = c >= utf8.RuneSelf || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
			'0' <= c && c <= '9' || c == '_' || c == ':' || c == '.' || c == '-'
	}
	return t
}()

// nameEnd returns the end of the name starting at data[i], or -1 when
// none starts there (an ASCII name starts with a letter, '_' or ':'),
// and how many colons it holds.
func nameEnd(data []byte, i int) (end, colons int) {
	if i >= len(data) {
		return -1, 0
	}
	if c := data[i]; c < utf8.RuneSelf && (!nameByte[c] || c <= '9') {
		return -1, 0 // '-', '.' and the digits sort at or below '9'
	}
	for ; i < len(data) && nameByte[data[i]]; i++ {
		if data[i] == ':' {
			colons++
		}
	}
	return i, colons
}

// isSpace reports XML white space.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// readTag reads the start or end tag at pos (which must point at '<')
// and advances past it. The name is an element name as encoding/xml
// reads one: at most one colon, followed by white space, '/' or '>'. An
// end tag carries nothing else; in a start tag, quoted attribute values
// may contain any byte, including '>'.
func (s *scanner) readTag() (name, attrs []byte, isEnd, selfClose, ok bool) {
	data, i := s.data, s.pos
	if i >= len(data) || data[i] != '<' {
		return nil, nil, false, false, false
	}
	i++
	if i < len(data) && data[i] == '/' {
		isEnd = true
		i++
	}
	end, colons := nameEnd(data, i)
	if end < 0 || colons > 1 || end >= len(data) || !(isSpace(data[end]) || data[end] == '>' || data[end] == '/') {
		return nil, nil, false, false, false
	}
	name = data[i:end]
	for i = end; i < len(data); {
		switch c := data[i]; {
		case c == '>':
			selfClose = data[i-1] == '/' && i > end
			attrs = data[end:i]
			if selfClose {
				attrs = attrs[:len(attrs)-1]
			}
			s.pos = i + 1
			return name, attrs, isEnd, selfClose, true
		case isEnd && !isSpace(c):
			return nil, nil, false, false, false
		case c == '"' || c == '\'':
			close := bytes.IndexByte(data[i+1:], c)
			if close < 0 {
				return nil, nil, false, false, false
			}
			i += close + 2
		default:
			i++
		}
	}
	return nil, nil, false, false, false
}

// findSubtreeClose scans the content of an element whose start tag
// (raw name open) has just been consumed, content beginning at from, and
// returns the offset of the '<' of its matching close tag, leaving pos
// just past that close tag. Every close tag must match its open tag by
// name: mismatched tags — the structural malformation a parse would
// reject — report !ok. Content itself (text, attribute values) is
// skipped, not read.
func (s *scanner) findSubtreeClose(from int, open []byte) (closeStart int, ok bool) {
	s.pos = from
	// Open elements, by where their names start; the first 32 levels
	// cost no allocation.
	var fixed [32]int
	stack := fixed[:0]
	for s.nextTag() {
		tagStart := s.pos
		name, _, isEnd, selfClose, ok := s.readTag()
		switch {
		case !ok:
			return 0, false
		case isEnd && len(stack) == 0:
			return tagStart, bytes.Equal(name, open)
		case isEnd:
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if end, _ := nameEnd(s.data, top); !bytes.Equal(name, s.data[top:end]) {
				return 0, false
			}
		case !selfClose:
			stack = append(stack, tagStart+1)
		}
	}
	return 0, false
}

// nextTag advances to the next start or end tag, past text, comments,
// CDATA sections, processing instructions and directives; false means
// there is none, or what it passed was malformed.
func (s *scanner) nextTag() bool {
	for {
		off := bytes.IndexByte(s.data[s.pos:], '<')
		if off < 0 {
			return false
		}
		s.pos += off
		rest := s.data[s.pos:]
		var ok bool
		switch {
		case len(rest) < 2 || rest[1] != '?' && rest[1] != '!':
			return true
		case rest[1] == '?':
			ok = s.skipPI()
		case bytes.HasPrefix(rest, commentOpen):
			ok = s.skipComment()
		case bytes.HasPrefix(rest, cdataOpen):
			ok = s.skipCDATA()
		default:
			ok = s.skipDirective()
		}
		if !ok {
			return false
		}
	}
}

// splitName splits a raw element name into prefix and local part as
// encoding/xml does: a colon with a name on either side separates them,
// any other name is all local part.
func splitName(name []byte) (prefix, local []byte) {
	if i := bytes.IndexByte(name, ':'); i > 0 && i < len(name)-1 {
		return name[:i], name[i+1:]
	}
	return nil, name
}

// declaresEnvelopeNS reports whether the root element's attribute span
// binds the root's own prefix (or the default namespace for an
// unprefixed root) to the SOAP 1.1 envelope namespace. As for
// encoding/xml, the last binding of the prefix is the one that holds.
func declaresEnvelopeNS(attrs, prefix []byte) (declared bool) {
	for i := 0; ; {
		for i < len(attrs) && isSpace(attrs[i]) {
			i++
		}
		if i == len(attrs) {
			return declared
		}
		nameStart := i
		for i < len(attrs) && attrs[i] != '=' && !isSpace(attrs[i]) {
			i++
		}
		name := attrs[nameStart:i]
		for i < len(attrs) && isSpace(attrs[i]) {
			i++
		}
		if i == len(attrs) || attrs[i] != '=' {
			return false
		}
		for i++; i < len(attrs) && isSpace(attrs[i]); i++ {
		}
		if i == len(attrs) || attrs[i] != '"' && attrs[i] != '\'' {
			return false
		}
		end := bytes.IndexByte(attrs[i+1:], attrs[i])
		if end < 0 {
			return false
		}
		value := attrs[i+1 : i+1+end]
		i += end + 2
		if ns, ok := bytes.CutPrefix(name, []byte("xmlns")); ok && (len(prefix) == 0 && len(ns) == 0 ||
			len(prefix) > 0 && len(ns) > 0 && ns[0] == ':' && bytes.Equal(ns[1:], prefix)) {
			declared = string(value) == EnvelopeNS
		}
	}
}

// ---------------------------------------------------------------------------
// Rewriting a fragment's root element

// rootTag finds the fragment's first element, past text, comments,
// processing instructions, CDATA sections and directives, and reads its
// start tag. start is the offset of its '<'.
func (s *scanner) rootTag() (start int, name []byte, selfClose, ok bool) {
	if !s.nextTag() {
		return 0, nil, false, false
	}
	start = s.pos
	name, _, isEnd, selfClose, ok := s.readTag()
	return start, name, selfClose, ok && !isEnd
}

// skipDirective moves past the directive (<!DOCTYPE …>) opening at pos
// as encoding/xml reads one: the byte after "<!" is taken unread, then
// up to the '>' that balances its '<' — quoted brackets and comments
// not counting.
func (s *scanner) skipDirective() bool {
	if i := s.pos + 2; i >= len(s.data) || s.data[i] == '-' || s.data[i] == '[' {
		return false // "<!-" not opening a comment, "<![" not opening CDATA
	}
	depth := 0
	var quote byte
	for i := s.pos + 3; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case quote != 0:
			if c == quote {
				quote = 0
			}
		case c == '>' && depth == 0:
			s.pos = i + 1
			return true
		case c == '>':
			depth--
		case c == '"' || c == '\'':
			quote = c
		case bytes.HasPrefix(s.data[i:], commentOpen):
			end := bytes.Index(s.data[i+len(commentOpen):], []byte("-->"))
			if end < 0 {
				return false
			}
			i += len(commentOpen) + end + 2
		case c == '<':
			depth++
		}
	}
	return false
}

// RenameRoot renames the first element of the fragment (and its matching
// end tag) to newLocal, dropping any namespace prefix from the tag name.
// A root whose end tag cannot be found keeps it: only the start tag
// renames. The upgrade middleware uses it to translate "<op>Conf"
// variant requests (§6.2 option 3) onto the underlying operation and
// back.
func RenameRoot(fragment []byte, newLocal string) ([]byte, error) {
	trimmed := bytes.TrimSpace(fragment)
	s := scanner{data: trimmed}
	start, name, selfClose, ok := s.rootTag()
	if !ok {
		return nil, ErrEmptyBody
	}
	afterName := start + 1 + len(name)
	out := make([]byte, 0, len(trimmed)+2*len(newLocal))
	out = append(append(out, trimmed[:start+1]...), newLocal...)
	if selfClose {
		return append(out, trimmed[afterName:]...), nil
	}
	closeStart, ok := s.findSubtreeClose(s.pos, name)
	if !ok {
		return append(out, trimmed[afterName:]...), nil
	}
	out = append(out, trimmed[afterName:closeStart]...)
	out = append(append(append(out, "</"...), newLocal...), '>')
	return append(out, trimmed[s.pos:]...), nil
}

// InjectElement appends a child element (rendered from raw XML) at the end
// of the first element of the given fragment and returns the new fragment.
// A self-closing root is expanded. The §6.2 "publish the confidence in
// the response" mechanism uses it to add the confidence element to an
// operation response without understanding its schema.
func InjectElement(fragment, childXML []byte) ([]byte, error) {
	trimmed := bytes.TrimSpace(fragment)
	s := scanner{data: trimmed}
	_, name, selfClose, ok := s.rootTag()
	if !ok {
		return nil, ErrEmptyBody
	}
	out := make([]byte, 0, len(trimmed)+len(childXML)+len(name)+3)
	if selfClose {
		// <a/> → <a>child</a>
		out = append(append(out, trimmed[:s.pos-2]...), '>')
		out = append(append(out, childXML...), "</"...)
		out = append(append(out, name...), '>')
		return append(out, trimmed[s.pos:]...), nil
	}
	closeStart, ok := s.findSubtreeClose(s.pos, name)
	if !ok {
		return nil, fmt.Errorf("%w: no complete root element", ErrEmptyBody)
	}
	out = append(append(out, trimmed[:closeStart]...), childXML...)
	return append(out, trimmed[closeStart:]...), nil
}
