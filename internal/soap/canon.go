// Canonical form: Canonicalize, the reference, and EqualCanonical, the
// comparison the oracles make of every judged pair of replies, which
// reads both fragments with the envelope scanner's markup primitives.

package soap

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"sync"
	"unicode/utf8"
)

// Canonicalize normalizes an XML fragment for byte comparison: it drops
// comments, processing instructions and inter-element whitespace, sorts
// attributes by name, resolves namespace prefixes, and re-encodes
// deterministically. Two fragments that differ only in formatting or
// prefix choice canonicalize identically, which is what the back-to-back
// comparison of release responses (§5.1.1.3) needs.
//
// It is the reference: EqualCanonical answers the same question without
// building either canonical form, and is tested (and fuzzed) against
// this function.
func Canonicalize(fragment []byte) ([]byte, error) {
	dec := xml.NewDecoder(bytes.NewReader(fragment))
	out := make([]byte, 0, len(fragment))
	depth := 0
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, fmt.Errorf("soap: canonicalizing: %w", err)
		}
		if text, ok := tok.(xml.CharData); ok {
			if significantText(text, depth) {
				out = AppendEscaped(out, text)
			}
			continue
		}
		out = appendCanonicalTag(out, tok, &depth)
	}
}

// xmlSpace is XML's white space, the S production (XML 1.0 §2.3). No
// other space is: U+00A0 or U+0085 in a reply is content.
const xmlSpace = " \t\r\n"

// significantText reports whether a character-data token belongs to the
// canonical form: text outside the root and runs of XML white space are
// formatting.
func significantText(text []byte, depth int) bool {
	return depth > 0 && len(bytes.TrimLeft(text, xmlSpace)) > 0
}

// appendCanonicalTag appends the canonical form of a start or end tag
// and keeps the element depth; every other token (comments, processing
// instructions, directives) has no canonical form.
func appendCanonicalTag(dst []byte, tok xml.Token, depth *int) []byte {
	switch t := tok.(type) {
	case xml.StartElement:
		*depth++
		dst = append(dst, '<')
		dst = appendCanonicalName(dst, t.Name)
		// Namespace declarations are resolved into the names; the rest
		// are emitted sorted by name. The token's slice is ours to
		// reorder (the decoder builds one per start tag and keeps no
		// reference), and an insertion sort of the handful of
		// attributes an element carries needs no scratch and no closure.
		attrs := t.Attr[:0]
		for _, a := range t.Attr {
			if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
				continue
			}
			i := len(attrs)
			attrs = append(attrs, a)
			for ; i > 0 && nameLess(a.Name, attrs[i-1].Name); i-- {
				attrs[i], attrs[i-1] = attrs[i-1], attrs[i]
			}
		}
		for _, a := range attrs {
			dst = append(dst, ' ')
			dst = appendCanonicalName(dst, a.Name)
			dst = append(dst, '=', '"')
			dst = AppendEscaped(dst, a.Value)
			dst = append(dst, '"')
		}
		dst = append(dst, '>')
	case xml.EndElement:
		*depth--
		dst = append(dst, '<', '/')
		dst = appendCanonicalName(dst, t.Name)
		dst = append(dst, '>')
	}
	return dst
}

func nameLess(a, b xml.Name) bool {
	if a.Space != b.Space {
		return a.Space < b.Space
	}
	return a.Local < b.Local
}

func appendCanonicalName(dst []byte, n xml.Name) []byte {
	if n.Space != "" {
		dst = append(dst, '{')
		dst = append(dst, n.Space...)
		dst = append(dst, '}')
	}
	return append(dst, n.Local...)
}

// EqualCanonical reports whether two XML fragments canonicalize to the
// same bytes. Unparsable fragments compare by raw bytes. The answer is
// exactly
//
//	bytes.Equal(a, b) || (both parse && bytes.Equal(Canonicalize(a), Canonicalize(b)))
//
// This is the oracle comparison primitive, called once per reply pair
// on every judged demand. Byte-identical fragments (agreeing releases
// serialize deterministically) are equal without parsing. Differing
// ones are read in step by two canonScans, which produce each
// fragment's canonical bytes a chunk at a time without allocating, so
// the comparison returns within the chunk that holds the first
// canonical byte that differs: an early difference costs a chunk, a
// late one or one of formatting only costs both documents. A fragment
// outside the scanners' subset, every one encoding/xml refuses among
// them, leaves the answer to Canonicalize itself, which reads both
// fragments whole.
//
// It is the canonical byte streams that are compared, not the token
// sequences: "a<!--c-->b" and "ab" are one run of text in canonical
// form and two tokens against one.
//
//wsu:noalloc
func EqualCanonical(a, b []byte) bool {
	return bytes.Equal(a, b) || equalScanned(a, b)
}

// canonPairs keeps the two scanners a comparison of differing fragments
// reads them with, their chunks and bounded arrays included (some
// 9 KB), so that these are neither allocated nor carried on the
// comparing goroutine's stack. A chunk starts with room for a tag past
// canonChunk; a longer tag grows it once.
var canonPairs = sync.Pool{New: func() any {
	p := new([2]canonScan)
	for i := range p {
		p[i].chunk = make([]byte, 0, 2*canonChunk)
	}
	return p
}}

// equalScanned is EqualCanonical for fragments that are not
// byte-identical.
//
//wsu:noalloc
func equalScanned(a, b []byte) bool {
	p := canonPairs.Get().(*[2]canonScan)
	x, y := &p[0], &p[1]
	x.data, y.data = a, b
	eq, sure := equalScans(x, y)
	x.clear()
	y.clear()
	canonPairs.Put(p)
	if sure {
		return eq
	}
	return equalByReference(a, b)
}

// equalScans compares two canonical streams, stopping at the first
// evidence they differ. sure is false when either scanner declined
// before that evidence.
//
//wsu:noalloc
func equalScans(x, y *canonScan) (eq, sure bool) {
	for {
		px, py := x.next(), y.next()
		if x.declined || y.declined {
			return false, false
		}
		n := min(len(px), len(py))
		if n == 0 {
			return len(px) == len(py), true // both ended, or one has bytes the other never will
		}
		if !bytes.Equal(px[:n], py[:n]) {
			return false, true
		}
		x.out, y.out = px[n:], py[n:]
	}
}

// equalByReference is EqualCanonical's answer built on the reference.
func equalByReference(a, b []byte) bool {
	ca, err := Canonicalize(a)
	if err != nil {
		return false
	}
	cb, err := Canonicalize(b)
	return err == nil && bytes.Equal(ca, cb)
}

// The canonical scanner's sizes and bounds. A fragment past a bound is
// declined, not misread.
const (
	// canonFirst and canonChunk bound the canonical bytes a scanner
	// produces before the comparison takes them: canonFirst the first
	// time, then twice the last bound, up to canonChunk. Text stops at
	// the bound; a tag may run past it.
	canonFirst = 128
	canonChunk = 4 << 10
	// maxCanonDepth bounds the open elements, maxCanonNS the namespace
	// declarations in scope and maxCanonAttrs the attributes of one
	// start tag: each is a fixed array in canonScan.
	maxCanonDepth = 64
	maxCanonNS    = 32
	maxCanonAttrs = 16
)

// canonScan produces one fragment's canonical bytes — Canonicalize's
// output, byte for byte — a chunk at a time, reading a strict subset of
// what encoding/xml reads with the envelope scanner's primitives:
//
//   - elements and attributes with ASCII names of at most one colon,
//     their prefixes resolved on a bounded stack of declarations whose
//     values are literal (no reference, no CR);
//   - text and attribute values of valid UTF-8 in XML's character
//     range, with the five predefined entities and decimal or
//     hexadecimal character references decoded (AppendEscaped, like
//     encoding/xml, writes '"' as "&#34;" and LF as "&#xA;") and CR and
//     CRLF read as LF, as encoding/xml reads them;
//   - comments and processing instructions, which have no canonical
//     form, other than an XML declaration.
//
// Anything else — a CDATA section, a DOCTYPE or other directive, an XML
// declaration (whose version and encoding encoding/xml checks), a name
// past ASCII, a bound exceeded, and everything encoding/xml refuses —
// declines: the scanner stops and EqualCanonical asks the reference.
// What a scanner produced before it declined is still the canonical
// form's prefix, so a difference found there stands.
type canonScan struct {
	scanner
	chunk    []byte // the scanner's own, kept with it in canonPairs
	out      []byte // produced and not yet compared
	limit    int    // how much the chunk being produced may hold
	inText   bool   // pos is in a run of text that has a canonical form
	depth    int
	open     [maxCanonDepth]canonOpen
	nsN      int
	ns       [maxCanonNS]canonNS
	attrs    [maxCanonAttrs]canonAttr
	done     bool // the fragment ended,
	declined bool // and this is how, if the scanner could not read it
}

// canonOpen is an open element: its raw name in data, and the height of
// the namespace stack below its own declarations.
type canonOpen struct{ start, end, mark int }

// canonNS binds a prefix (nil for the default namespace) to a URI.
type canonNS struct{ prefix, uri []byte }

// canonAttr is an attribute as written: its name's prefix, resolved to
// a namespace once the tag is read, its local name and its value
// between the quotes.
type canonAttr struct{ space, local, value []byte }

// xmlNS is the namespace encoding/xml gives the xml prefix, bound or not.
var xmlNS = []byte("http://www.w3.org/XML/1998/namespace")

// clear makes s a scanner of nothing, keeping its chunk: it holds
// nothing of the fragment it read, so the pool keeps no reply alive.
//
//wsu:noalloc
func (s *canonScan) clear() {
	*s = canonScan{chunk: s.chunk[:0]}
}

// next returns the canonical bytes produced and not yet compared,
// producing more when there are none. Empty means the stream has ended
// or the scanner declined (s.declined).
//
//wsu:noalloc
func (s *canonScan) next() []byte {
	if len(s.out) > 0 || s.done {
		return s.out
	}
	// The first chunk is small, so that an early difference costs
	// little; each next one doubles, up to canonChunk.
	s.chunk, s.limit = s.chunk[:0], min(max(2*s.limit, canonFirst), canonChunk)
	for len(s.chunk) < s.limit && !s.done {
		var ok bool
		if s.inText {
			ok = s.emitText()
		} else {
			ok = s.step()
		}
		if !ok {
			s.done, s.declined = true, true
			return nil
		}
	}
	s.out = s.chunk
	return s.out
}

// step reads what starts at pos: markup, or the start of a run of text.
//
//wsu:noalloc
func (s *canonScan) step() bool {
	d := s.data
	if s.pos == len(d) {
		s.done = true
		return s.depth == 0
	}
	if d[s.pos] != '<' {
		return s.startText()
	}
	rest := d[s.pos:]
	switch {
	case len(rest) < 2:
		return false
	case rest[1] == '/':
		return s.endTag()
	case rest[1] == '?':
		end, ok := s.name(s.pos + len(piOpen))
		return ok && string(d[s.pos+len(piOpen):end]) != "xml" && s.skipPI()
	case bytes.HasPrefix(rest, commentOpen):
		return s.skipComment()
	case rest[1] == '!':
		return false // a CDATA section or a directive
	}
	return s.startTag()
}

// name returns the end of the name at data[i] — an element, attribute
// or target name encoding/xml reads alike — where it is ASCII and has
// at most one colon.
//
//wsu:noalloc
func (s *canonScan) name(i int) (end int, ok bool) {
	d := s.data
	if i >= len(d) || !nameByte[d[i]] || d[i] <= '9' {
		return 0, false // '-', '.' and the digits sort at or below '9'
	}
	colons := 0
	for end = i; end < len(d) && nameByte[d[end]]; end++ {
		switch c := d[end]; {
		case c >= utf8.RuneSelf:
			return 0, false
		case c == ':':
			colons++
		}
	}
	return end, colons <= 1
}

// skipSpace returns the first index from i that is not XML white space.
//
//wsu:noalloc
func skipSpace(d []byte, i int) int {
	for i < len(d) && isSpace(d[i]) {
		i++
	}
	return i
}

// startText begins the run of text at pos. Outside the root it is
// checked and dropped; inside, only a run with a character other than
// XML white space — once references are decoded — has a canonical form.
//
//wsu:noalloc
func (s *canonScan) startText() bool {
	d := s.data
	if s.depth == 0 {
		s.pos = textEnd(d, s.pos, false)
		return s.pos >= 0
	}
	i := s.pos
	for i < len(d) && d[i] != '<' {
		r, n := rune(d[i]), 1
		if r == '&' {
			var ok bool
			if r, n, ok = charRef(d[i:]); !ok {
				return false
			}
		}
		if r >= utf8.RuneSelf || !isSpace(byte(r)) {
			s.inText = true
			return true
		}
		i += n
	}
	s.pos = i
	return true
}

// emitText writes the canonical form of the run of text at pos into the
// chunk, up to the run's end or until the chunk is at its limit.
//
//wsu:noalloc
func (s *canonScan) emitText() bool {
	d := s.data
	for len(s.chunk) < s.limit {
		i := s.pos
		j := plainEnd(d, i, min(len(d), i+s.limit-len(s.chunk)))
		s.chunk = append(s.chunk, d[i:j]...)
		s.pos = j
		switch {
		case j == len(d) || d[j] == '<':
			s.inText = false
			return true
		case len(s.chunk) == s.limit:
			return true
		}
		r, n, ok := char(d, j, false)
		if !ok {
			return false
		}
		s.chunk = appendEscapedRune(s.chunk, r)
		s.pos += n
	}
	return true
}

// plainByte marks the bytes that are their own canonical form where
// they stand alone: every ASCII XML character but the five markup
// characters, tab, LF and CR.
var plainByte = func() (t [256]bool) {
	for c := range utf8.RuneSelf {
		t[c] = c >= 0x20 && escapeOf(rune(c)) == ""
	}
	return t
}()

// plainEnd returns the end of the span of d[i:limit] that is its own
// canonical form: plain bytes, and UTF-8 for characters in XML's range.
//
//wsu:noalloc
func plainEnd(d []byte, i, limit int) int {
	d = d[:limit]
	for i < len(d) {
		if plainByte[d[i]] {
			i++
			continue
		}
		if d[i] < utf8.RuneSelf {
			return i
		}
		r, n := utf8.DecodeRune(d[i:])
		if r == utf8.RuneError && n == 1 || !inXMLCharRange(r) {
			return i
		}
		i += n
	}
	return i
}

// textEnd reads the character data d[i:] — text up to its next '<', or
// with attr the whole of an attribute value — and returns where it
// ends, or -1 where encoding/xml refuses it.
//
//wsu:noalloc
func textEnd(d []byte, i int, attr bool) int {
	for {
		i = plainEnd(d, i, len(d))
		if i == len(d) || !attr && d[i] == '<' {
			return i
		}
		_, n, ok := char(d, i, attr)
		if !ok {
			return -1
		}
		i += n
	}
}

// char decodes the character at d[i], one plainEnd stopped at, as
// encoding/xml reads it in text or, with attr, in an attribute value: a
// reference decoded, CR and CRLF read as LF. ok is false where
// encoding/xml refuses it.
//
//wsu:noalloc
func char(d []byte, i int, attr bool) (r rune, n int, ok bool) {
	switch c := d[i]; {
	case c == '&':
		return charRef(d[i:])
	case c == '\r':
		if i+1 < len(d) && d[i+1] == '\n' {
			return '\n', 2, true
		}
		return '\n', 1, true
	case c == '<':
		return '<', 1, false
	case c == '>':
		// "]]>" may not stand in text. A run of text starts after
		// markup, which ends in '>', so both brackets are the run's own.
		return '>', 1, attr || i < 2 || d[i-1] != ']' || d[i-2] != ']'
	case c < utf8.RuneSelf:
		return rune(c), 1, c >= 0x20 || isSpace(c)
	}
	r, n = utf8.DecodeRune(d[i:])
	return r, n, !(r == utf8.RuneError && n == 1) && inXMLCharRange(r)
}

// predefinedEntities are the entities encoding/xml knows without a
// declaration, each with its ';'.
var predefinedEntities = [...]struct {
	ref string
	r   rune
}{{"lt;", '<'}, {"gt;", '>'}, {"amp;", '&'}, {"apos;", '\''}, {"quot;", '"'}}

// charRef decodes the reference at the start of d (d[0] is '&') as
// encoding/xml does: a predefined entity, or a decimal or "x"
// hexadecimal character reference to a character in XML's range, a
// surrogate reading as U+FFFD as Go converts it.
//
//wsu:noalloc
func charRef(d []byte) (r rune, n int, ok bool) {
	if len(d) < 3 || d[1] != '#' {
		for _, e := range predefinedEntities {
			if len(d) > len(e.ref) && string(d[1:1+len(e.ref)]) == e.ref {
				return e.r, 1 + len(e.ref), true
			}
		}
		return 0, 0, false
	}
	i, base := 2, rune(10)
	if d[2] == 'x' {
		i, base = 3, 16
	}
	start := i
	for ; i < len(d); i++ {
		v := digitValue(d[i])
		if v >= base {
			break
		}
		if r = r*base + v; r > utf8.MaxRune {
			return 0, 0, false
		}
	}
	if i == start || i == len(d) || d[i] != ';' {
		return 0, 0, false
	}
	if 0xD800 <= r && r <= 0xDFFF {
		r = utf8.RuneError
	}
	return r, i + 1, inXMLCharRange(r)
}

// digitValue is c's value as a hexadecimal digit, or 16 for a byte
// that is none.
func digitValue(c byte) rune {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0')
	case 'a' <= c && c <= 'f':
		return rune(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return rune(c-'A') + 10
	}
	return 16
}

// appendEscapedRune appends r as AppendEscaped writes it.
//
//wsu:noalloc
func appendEscapedRune(dst []byte, r rune) []byte {
	if esc := escapeOf(r); esc != "" {
		return append(dst, esc...)
	}
	return utf8.AppendRune(dst, r)
}

// startTag reads the start tag at pos, binds its namespace
// declarations and writes its canonical form, and a self-closing tag's
// end tag after it.
//
//wsu:noalloc
func (s *canonScan) startTag() bool {
	d := s.data
	nameStart := s.pos + 1
	nameEnd, ok := s.name(nameStart)
	if !ok {
		return false
	}
	mark, n, selfClose := s.nsN, 0, false
	i := nameEnd
	for {
		if i = skipSpace(d, i); i >= len(d) {
			return false
		}
		if d[i] == '>' {
			i++
			break
		}
		if d[i] == '/' {
			if i+1 == len(d) || d[i+1] != '>' {
				return false
			}
			selfClose, i = true, i+2
			break
		}
		attrEnd, ok := s.name(i)
		if !ok || n == maxCanonAttrs {
			return false
		}
		prefix, local := splitName(d[i:attrEnd])
		if i = skipSpace(d, attrEnd); i == len(d) || d[i] != '=' {
			return false
		}
		if i = skipSpace(d, i+1); i == len(d) || d[i] != '"' && d[i] != '\'' {
			return false
		}
		end := bytes.IndexByte(d[i+1:], d[i])
		if end < 0 {
			return false
		}
		value := d[i+1 : i+1+end]
		i += end + 2
		// As for encoding/xml, every declaration on the tag is in
		// scope before any of its names is resolved.
		switch {
		case string(prefix) == "xmlns":
			ok = s.bind(local, value)
		case prefix == nil && string(local) == "xmlns":
			ok = s.bind(nil, value)
		}
		if !ok {
			return false
		}
		s.attrs[n] = canonAttr{space: prefix, local: local, value: value}
		n++
	}
	s.pos = i
	prefix, local := splitName(d[nameStart:nameEnd])
	space := s.resolve(prefix, local, true)
	attrs, ok := s.sortAttrs(n)
	if !ok {
		return false
	}
	b := appendResolved(append(s.chunk, '<'), space, local)
	for k := range attrs {
		a := &attrs[k]
		b = appendResolved(append(b, ' '), a.space, a.local)
		if b, ok = appendValue(append(b, '=', '"'), a.value); !ok {
			return false
		}
		b = append(b, '"')
	}
	b = append(b, '>')
	if selfClose {
		s.chunk = append(appendResolved(append(b, '<', '/'), space, local), '>')
		s.nsN = mark
		return true
	}
	s.chunk = b
	if s.depth == maxCanonDepth {
		return false
	}
	s.open[s.depth] = canonOpen{nameStart, nameEnd, mark}
	s.depth++
	return true
}

// bind puts a declaration in scope. Its value must be literal — no
// reference, no CR — so that the URI is the bytes as written.
//
//wsu:noalloc
func (s *canonScan) bind(prefix, uri []byte) bool {
	if s.nsN == maxCanonNS || bytes.IndexAny(uri, "&\r") >= 0 || textEnd(uri, 0, true) != len(uri) {
		return false
	}
	s.ns[s.nsN] = canonNS{prefix, uri}
	s.nsN++
	return true
}

// resolve returns the namespace encoding/xml gives a name with this
// prefix: xmlns and xml are fixed, an attribute without a prefix has
// none, and an unbound prefix stands for itself.
//
//wsu:noalloc
func (s *canonScan) resolve(prefix, local []byte, element bool) []byte {
	switch {
	case string(prefix) == "xmlns":
		return prefix
	case prefix == nil && !element:
		return nil
	case string(prefix) == "xml":
		return xmlNS
	case prefix == nil && string(local) == "xmlns":
		return nil
	}
	for i := s.nsN - 1; i >= 0; i-- {
		if bytes.Equal(s.ns[i].prefix, prefix) {
			return s.ns[i].uri
		}
	}
	return prefix
}

// sortAttrs resolves the first n attributes' prefixes, drops the
// namespace declarations among them and sorts the rest by name as
// appendCanonicalTag does: an insertion sort, so attributes of one name
// keep their order. ok is false when a dropped value is one encoding/xml
// refuses.
//
//wsu:noalloc
func (s *canonScan) sortAttrs(n int) (attrs []canonAttr, ok bool) {
	k := 0
	for j := 0; j < n; j++ {
		a := s.attrs[j]
		a.space = s.resolve(a.space, a.local, false)
		if string(a.space) == "xmlns" || len(a.space) == 0 && string(a.local) == "xmlns" {
			if textEnd(a.value, 0, true) != len(a.value) {
				return nil, false
			}
			continue
		}
		i := k
		s.attrs[k] = a
		k++
		for ; i > 0 && attrLess(a, s.attrs[i-1]); i-- {
			s.attrs[i], s.attrs[i-1] = s.attrs[i-1], s.attrs[i]
		}
	}
	return s.attrs[:k], true
}

//wsu:noalloc
func attrLess(a, b canonAttr) bool {
	if c := bytes.Compare(a.space, b.space); c != 0 {
		return c < 0
	}
	return bytes.Compare(a.local, b.local) < 0
}

// appendResolved is appendCanonicalName on a resolved name.
//
//wsu:noalloc
func appendResolved(dst, space, local []byte) []byte {
	if len(space) > 0 {
		dst = append(append(append(dst, '{'), space...), '}')
	}
	return append(dst, local...)
}

// appendValue appends an attribute value's canonical form: decoded,
// then escaped.
//
//wsu:noalloc
func appendValue(dst, value []byte) ([]byte, bool) {
	for i := 0; i < len(value); {
		j := plainEnd(value, i, len(value))
		dst = append(dst, value[i:j]...)
		if i = j; i == len(value) {
			break
		}
		r, n, ok := char(value, i, true)
		if !ok {
			return dst, false
		}
		dst = appendEscapedRune(dst, r)
		i += n
	}
	return dst, true
}

// endTag reads the end tag at pos, which must close the innermost open
// element by its name as written, writes its canonical form and takes
// that element's declarations out of scope.
//
//wsu:noalloc
func (s *canonScan) endTag() bool {
	d := s.data
	nameStart := s.pos + 2
	nameEnd, ok := s.name(nameStart)
	if !ok || s.depth == 0 {
		return false
	}
	i := skipSpace(d, nameEnd)
	top := s.open[s.depth-1]
	if i == len(d) || d[i] != '>' || !bytes.Equal(d[nameStart:nameEnd], d[top.start:top.end]) {
		return false
	}
	prefix, local := splitName(d[nameStart:nameEnd])
	space := s.resolve(prefix, local, true)
	s.chunk = append(appendResolved(append(s.chunk, '<', '/'), space, local), '>')
	s.nsN = top.mark
	s.depth--
	s.pos = i + 1
	return true
}
