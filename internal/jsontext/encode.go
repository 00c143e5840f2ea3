// Package jsontext is the syntactic layer the repository's hand-written
// JSON codecs share: append-style writers for string and float literals
// that produce encoding/json's bytes, and a validating scanner that walks a
// document in place and hands back views into it. The trace exporter and
// loader (internal/telemetry, internal/traceanalysis) and the decision
// ledger's JSONL codec (internal/events) are built on it; each is held to
// encoding/json by an oracle test and a fuzzer of its own.
//
// The scanner looks at each byte once. Its loops run on a local cursor and
// store Pos once per token; a string's plain run (printable ASCII, no quote
// or backslash) is walked through one byte-class table, and Unquote, so
// Text, hands such a literal back after one more pass of the same table.
// A number is converted only where a caller asks for it, in Float: a
// literal -?d+(.d+)? whose digits fit 2^53 and whose fraction has at most
// 22 digits is one IEEE division of two exactly held operands, which
// rounds correctly and so equals strconv.ParseFloat bit for bit (Clinger's
// fast path; FuzzFloat holds it there); every other literal goes to
// strconv.
package jsontext

import (
	"math"
	"strconv"
	"unicode/utf8"
)

// AppendFloat appends f as encoding/json renders a float64: shortest
// round-trip digits, plain notation except below 1e-6 and from 1e21, where
// the exponent form drops the zero strconv pads a one-digit negative
// exponent with. NaN and the infinities have no JSON form: ok is false and
// dst comes back as it was.
func AppendFloat(dst []byte, f float64) (out []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal under encoding/json's
// default rules: control characters, quote and backslash escaped, so are
// <, > and & (HTML-safe output) and U+2028/U+2029 (JSONP-safe), and each
// byte of invalid UTF-8 becomes U+FFFD.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			start = i + size
		}
		i += size
	}
	return append(append(dst, s[start:]...), '"')
}
