package jsoncodec

import (
	"encoding/binary"
	"math/bits"
)

// maxDepth is encoding/json's nesting limit: its Valid accepts 10 000
// nested arrays and objects and rejects 10 001.
const maxDepth = 10000

// valid reports whether data is one JSON value between optional white
// space, exactly as encoding/json's Valid does (FuzzJSONValid holds the
// two to each other): RFC 8259's grammar, escapes checked but UTF-8 not,
// no byte-order mark, and at most maxDepth open containers. It does not
// recurse: the kind of each open container is one bit of a fixed stack,
// so the deepest document encoding/json accepts costs 1.25 KB of frame.
//
//wsu:noalloc
func valid(data []byte) bool {
	var objects [maxDepth/64 + 1]uint64 // bit d set: the container at depth d is an object
	depth := 0
	i := 0
	for {
		// A value starts at i.
		i = skipSpace(data, i)
		if i == len(data) {
			return false
		}
		switch c := data[i]; c {
		case '{', '[':
			if depth == maxDepth {
				return false
			}
			i = skipSpace(data, i+1)
			if i < len(data) && data[i] == c+2 { // '}' is '{'+2, ']' is '['+2
				i++
				break
			}
			bit := uint64(1) << (uint(depth) % 64)
			if c == '{' {
				objects[depth/64] |= bit
				if i = skipKey(data, i); i < 0 {
					return false
				}
			} else {
				objects[depth/64] &^= bit
			}
			depth++
			continue
		case '"':
			i = skipString(data, i+1)
		case 't':
			i = skipLiteral(data, i, "true")
		case 'f':
			i = skipLiteral(data, i, "false")
		case 'n':
			i = skipLiteral(data, i, "null")
		default:
			i = skipNumber(data, i)
		}
		if i < 0 {
			return false
		}
		// A value ends at i: close the containers it completes, then step
		// over the comma (and, in an object, the next key) to the next value.
		for {
			i = skipSpace(data, i)
			if depth == 0 {
				return i == len(data)
			}
			if i == len(data) {
				return false
			}
			d := depth - 1
			inObject := objects[d/64]>>(uint(d)%64)&1 != 0
			c := data[i]
			i++
			if c == ',' {
				if inObject {
					if i = skipKey(data, i); i < 0 {
						return false
					}
				}
				break
			}
			if inObject && c != '}' || !inObject && c != ']' {
				return false
			}
			depth--
		}
	}
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON white space.
func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// skipKey steps over an object member's name and colon, starting from the
// white space before the name, and returns the index after the colon, or
// -1 if they are not there.
func skipKey(data []byte, i int) int {
	i = skipSpace(data, i)
	if i == len(data) || data[i] != '"' {
		return -1
	}
	if i = skipString(data, i+1); i < 0 {
		return -1
	}
	i = skipSpace(data, i)
	if i == len(data) || data[i] != ':' {
		return -1
	}
	return i + 1
}

// skipString steps over the rest of a string whose opening quote is just
// before i and returns the index after its closing quote, or -1. Plain
// runs are crossed eight bytes to a load.
func skipString(data []byte, i int) int {
	for {
		for i+8 <= len(data) {
			if m := stringStops(binary.LittleEndian.Uint64(data[i:])); m != 0 {
				i += bits.TrailingZeros64(m) / 8
				break
			}
			i += 8
		}
		if i >= len(data) {
			return -1
		}
		switch c := data[i]; {
		case c == '"':
			return i + 1
		case c == '\\':
			if i = skipEscape(data, i+1); i < 0 {
				return -1
			}
		case c < 0x20:
			return -1
		default:
			i++
		}
	}
}

// stringStops sets the top bit of each byte of w that ends a plain run
// inside a string: '"', '\\' or a control character below 0x20. Only the
// lowest flag is exact — a borrow can raise false ones above a true one —
// and the lowest is all skipString reads.
func stringStops(w uint64) uint64 {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	q := w ^ (ones * '"')
	b := w ^ (ones * '\\')
	return (((w - ones*0x20) &^ w) | ((q - ones) &^ q) | ((b - ones) &^ b)) & highs
}

// skipEscape steps over an escape whose backslash is just before i: one
// of "\/bfnrt, or u and four hex digits. It returns -1 for anything else.
func skipEscape(data []byte, i int) int {
	if i == len(data) {
		return -1
	}
	switch data[i] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return i + 1
	case 'u':
		if len(data)-i < 5 {
			return -1
		}
		for _, h := range data[i+1 : i+5] {
			if !('0' <= h && h <= '9' || 'a' <= h && h <= 'f' || 'A' <= h && h <= 'F') {
				return -1
			}
		}
		return i + 5
	}
	return -1
}

// skipLiteral steps over lit (true, false or null) at i, or returns -1.
func skipLiteral(data []byte, i int, lit string) int {
	if len(data)-i < len(lit) || string(data[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// skipNumber steps over the number at i,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, or returns -1.
func skipNumber(data []byte, i int) int {
	if data[i] == '-' {
		i++
	}
	switch {
	case i == len(data):
		return -1
	case data[i] == '0':
		i++
	case '1' <= data[i] && data[i] <= '9':
		i = skipDigits(data, i+1)
	default:
		return -1
	}
	if i < len(data) && data[i] == '.' {
		j := skipDigits(data, i+1)
		if j == i+1 {
			return -1
		}
		i = j
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		j := skipDigits(data, i)
		if j == i {
			return -1
		}
		i = j
	}
	return i
}

// skipDigits returns the index of the first byte at or after i that is not
// a decimal digit.
func skipDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}
