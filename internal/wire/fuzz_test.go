package wire

import (
	"bufio"
	"bytes"
	"net/textproto"
	"strings"
	"testing"

	"wsupgrade/internal/httpx"
)

// FuzzHeaderGet holds the header block readResponse hands out, and
// httpx.Header's lookup in it, to net/textproto's reader: whatever
// block the wire reader accepts the reference accepts too, every field
// the reference parsed is found with the reference's (first) value
// under any spelling of its name, a name the block does not carry is
// not found, and a lookup stays inside the block. The wire reader is
// the stricter of the two by design (no folded lines, no blank before
// the colon), so a block only the reference accepts is not a finding.
func FuzzHeaderGet(f *testing.F) {
	for _, seed := range []string{
		"Content-Type: text/xml; charset=utf-8\r\nContent-Length: 0",
		"Date: Sat, 26 Sep 2026 10:00:00 GMT\r\nX-Wsupgrade-Injected: NER\r\nContent-Length: 0",
		"x-a: 1\r\nX-A: 2\r\nX-a:3",
		"X-Empty:\r\nX-Blank:   \t \r\nX-Padded: \t v \t ",
		"X-Folded: a\r\n b\r\nX-After: c",
		" X-Leading: blank",
		"X-Space : before-colon",
		"No-Colon-Here",
		": no-name",
		"X-Ctl: a\x00b",
		"X-Cr: a\rb",
		"X-High: caf\xc3\xa9\r\nX-Colon: a:b:c",
		"Bare-Lf: 1\nNext: 2",
		"Content-Length: 3\r\n\r\nabc",
		"Transfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n0\r\n\r\n",
		"X-Stop: 1\r\n\r\nX-Body: not-a-header",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, block []byte) {
		tail := append(append([]byte(nil), block...), "\r\n\r\n"...)
		c := &conn{br: bufio.NewReaderSize(bytes.NewReader(append([]byte("HTTP/1.1 200 OK\r\n"), tail...)), 4096)}
		_, data, n, _, err := c.readResponse(1 << 20)
		if err != nil {
			return
		}
		defer data.Release()
		want, err := textproto.NewReader(bufio.NewReader(bytes.NewReader(tail))).ReadMIMEHeader()
		if err != nil {
			t.Fatalf("the wire reader accepted a block net/textproto rejects (%v): %q", err, block)
		}

		// The lookups run on a copy with a decoy field right behind it in
		// the same array: reading past the block would find it.
		const decoy = "X-Past-The-Block"
		padded := append(append([]byte(nil), data.B[n:]...), decoy+": found\n"...)
		hdr := httpx.Header(padded[:len(data.B)-n])

		fields := 0
		for name, values := range want {
			fields += len(values)
			for _, spelling := range []string{name, strings.ToLower(name), strings.ToUpper(name)} {
				if got := hdr.Get(spelling); got != values[0] {
					t.Fatalf("Get(%q) = %q, net/textproto has %q, in %q", spelling, got, values[0], block)
				}
			}
		}
		if lines := bytes.Count(hdr, []byte("\n")); lines != fields {
			t.Fatalf("the block holds %d lines, net/textproto parsed %d fields, in %q", lines, fields, block)
		}
		if _, there := want[decoy]; !there {
			if got := hdr.Get(decoy); got != "" {
				t.Fatalf("Get read past the block: %q", got)
			}
		}
		if got := hdr.Get("X-Not-In-Any-Corpus-0f3a"); got != "" && want.Get("X-Not-In-Any-Corpus-0f3a") == "" {
			t.Fatalf("Get found %q under a name the block does not carry, in %q", got, block)
		}
	})
}
