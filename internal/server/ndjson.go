package server

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/exec"
	"repro/internal/storage"
)

// The longest rendering of one value of each numeric type:
// "-9223372036854775808" and "-2.2250738585072014e-308". A string of n
// bytes renders in at most 2+6n: every byte may escape to six ("\u001f",
// or "\ufffd" for a byte that is not UTF-8). Each bound also covers the
// word stores of its fast path, which reach 8, 11 and 4 bytes past the
// value's start.
const (
	maxIntWidth   = 20
	maxFloatWidth = 24
)

// encodeBatch appends a batch to out as NDJSON rows, one JSON array per
// row. It reserves the batch's output once, from the widest rendering
// each column's type allows, and writes every value into that room by
// index, so no append checks capacity value by value. The values the
// engine serves take fast paths that write the exact bytes of the
// slow paths beside them (strconv, appendString) in one or two word
// stores; a word store may write past its value, and the next write
// covers those bytes.
//
//   - An int64 in [0, 1e8) is its digits8 with the leading zeros
//     shifted out.
//   - A float64 below 1e6 in magnitude that is the double nearest to
//     k/100 is what strconv's shortest 'g' prints: the decimal k/100
//     without trailing zeros, an integer as that integer, zeros as "0"
//     and "-0". 'g' switches to an exponent only from 1e6, and no shorter
//     or other decimal of so few digits rounds to the same double. The
//     integer digits of k/100 go in one store and ".dd" in a second at
//     the point, of which the length keeps ".dd", ".d" or nothing,
//     without a branch: the cents of served prices are unpredictable.
//   - A one-byte string JSON carries unescaped (the served flag
//     columns) is one 4-byte store.
func encodeBatch(out []byte, b *exec.Batch) []byte {
	row := 3 + len(b.Vecs) // '[', a ',' or ']' after each value, '\n', one spare
	for _, v := range b.Vecs {
		switch v.T {
		case storage.Int64:
			row += maxIntWidth
		case storage.Float64:
			row += maxFloatWidth
		default:
			longest := 0
			for _, s := range v.Str[:b.N] {
				longest = max(longest, len(s))
			}
			row += 2 + 6*longest
		}
	}
	p := len(out)
	buf := slices.Grow(out, b.N*row)
	buf = buf[:cap(buf)]
	for i := 0; i < b.N; i++ {
		buf[p] = '['
		p++
		for _, v := range b.Vecs {
			switch v.T {
			case storage.Int64:
				if x := v.I64[i]; uint64(x) < 1e8 {
					d := digits8(uint64(x))
					z := min(bits.TrailingZeros64(d)/8, 7) // leading zeros; "0" keeps one
					binary.LittleEndian.PutUint64(buf[p:], (d|asciiZeros)>>(8*z))
					p += 8 - z
				} else {
					p += len(strconv.AppendInt(buf[p:p], x, 10))
				}
			case storage.Float64:
				f := v.F64[i]
				a := math.Abs(f)
				if k := int64(a*100 + 0.5); a < 1e6 && float64(k)/100 == a {
					buf[p] = '-' // kept only if the sign bit is set
					p += int(math.Float64bits(f) >> 63)
					d := digits8(uint64(k))
					z := min(bits.TrailingZeros64(d)/8, 5) // leading zeros; "0.05" keeps one
					w := d | asciiZeros
					binary.LittleEndian.PutUint64(buf[p:], w>>(8*z))
					p += 6 - z
					binary.LittleEndian.PutUint32(buf[p:], uint32(w>>48)<<8|'.')
					cents := (d>>48 + 0xffff) >> 16 // 1 unless both cent digits are 0
					last := (d>>56 + 0xff) >> 8     // 1 unless the last digit is 0
					p += int(2*cents + last)
				} else {
					p += len(strconv.AppendFloat(buf[p:p], f, 'g', -1, 64))
				}
			default:
				if s := v.Str[i]; len(s) == 1 && jsonSafe(s[0]) {
					binary.LittleEndian.PutUint32(buf[p:], '"'<<16|uint32(s[0])<<8|'"')
					p += 3
				} else {
					p += len(appendString(buf[p:p], s))
				}
			}
			buf[p] = ','
			p++
		}
		if len(b.Vecs) > 0 {
			p-- // the last value's ',' becomes the ']'
		}
		buf[p], buf[p+1] = ']', '\n'
		p += 2
	}
	return buf[:p]
}

// asciiZeros turns eight digit values into their ASCII bytes.
const asciiZeros = 0x3030303030303030

// digits8 returns x < 1e8 as eight zero-padded decimal digits (values
// 0–9), one per byte of a little-endian word in reading order, so one
// 8-byte store writes them left to right. It splits x into two
// four-digit lanes (below 1e4 the first is 0 and the second x), each
// lane into two-digit halves and each half into digits, dividing every
// lane at once by a multiply and a shift; the divisions are exact at
// these sizes, which TestKernelDigits8 checks on every x in range.
func digits8(x uint64) uint64 {
	lanes := x << 32
	if x >= 1e4 {
		lanes = x/10000 | x%10000<<32
	}
	hi := lanes * 10486 >> 20 & (0x7f<<32 | 0x7f) // each lane / 100
	lanes = (lanes-100*hi)<<16 | hi
	tens := lanes * 103 >> 10 & 0x000f_000f_000f_000f // each half / 10
	return (lanes-10*tens)<<8 | tens
}

// jsonSafe reports whether a JSON string carries byte c unescaped.
func jsonSafe(c byte) bool {
	return ' ' <= c && c < utf8.RuneSelf && c != '"' && c != '\\'
}

// appendString appends s as a JSON string, escaped as encoding/json
// escapes it under SetEscapeHTML(false): '"', '\\' and the control
// bytes are escaped (\b \f \n \r \t, else \u00XX), a byte that is not
// UTF-8 becomes \ufffd, U+2028 and U+2029 are escaped, and every other
// byte is copied.
func appendString(out []byte, s string) []byte {
	const hex = "0123456789abcdef"
	out = append(out, '"')
	start := 0
	for i := 0; i < len(s); {
		c, size := s[i], 1
		if c >= utf8.RuneSelf {
			r, n := utf8.DecodeRuneInString(s[i:])
			if n > 1 && r != '\u2028' && r != '\u2029' {
				i += n
				continue
			}
			size = n
		} else if jsonSafe(c) {
			i++
			continue
		}
		out = append(out, s[start:i]...)
		switch c {
		case '"', '\\':
			out = append(out, '\\', c)
		case '\b':
			out = append(out, '\\', 'b')
		case '\f':
			out = append(out, '\\', 'f')
		case '\n':
			out = append(out, '\\', 'n')
		case '\r':
			out = append(out, '\\', 'r')
		case '\t':
			out = append(out, '\\', 't')
		default:
			switch {
			case c < utf8.RuneSelf:
				out = append(out, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			case size == 1:
				out = append(out, `\ufffd`...)
			default: // U+2028 or U+2029, whose last byte ends in 8 or 9
				out = append(out, '\\', 'u', '2', '0', '2', hex[s[i+2]&0xf])
			}
		}
		i += size
		start = i
	}
	out = append(out, s[start:]...)
	return append(out, '"')
}
