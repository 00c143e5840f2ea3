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
// A number is converted only where a caller asks for it, in Float, Int or
// AppendFloat (number.go), and without strconv on the numbers a trace or a
// ledger holds. AppendFloat finds the shortest digits of a float64 from
// 1e-6 up to 1e21, encoding/json's plain range, by Schubfach and writes
// them from a two-digit table; Float reads a literal -?d+(.d+)? of at most
// 19 significant digits into one uint64 and divides it by its power of ten
// once, rounding once: an IEEE division when both are exact (Clinger's
// fast path), a 128-by-64-bit integer division otherwise; Int reads an
// integer literal of up to 18 digits. Zero, the exponent form and every
// longer literal go to strconv. The bytes are encoding/json's and the
// values strconv's, bit for bit: FuzzAppendFloat, FuzzFloat and
// TestIntMatchesStrconv hold them there.
package jsontext

import "unicode/utf8"

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
