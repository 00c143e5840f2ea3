package jsontext

import (
	"bytes"
	"fmt"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// MaxDepth bounds container nesting where encoding/json bounds it, so that
// hostile input cannot run the recursive skipper out of stack.
const MaxDepth = 10000

// Scanner walks one JSON document held in Data, from Pos. It validates
// structure as it goes but materialises nothing: values are skipped in
// place and handed to the caller as views into Data, to be interpreted
// (Text, Float) only where the caller knows the key. Errors name the byte
// offset they were found at.
type Scanner struct {
	Data []byte
	Pos  int
	// Depth counts the containers open at Pos. A scanner set down inside a
	// document, at a position another scanner will reach, starts from the
	// depth that one will have there.
	Depth int
}

// Skip passes over one value of any kind, checking its syntax.
func (s *Scanner) Skip() error {
	switch c := s.Peek(); {
	case c == '{':
		return s.Members(nil)
	case c == '[':
		if err := s.Open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := s.Element(first)
			if err != nil || !more {
				return err
			}
			if err := s.Skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, _, err := s.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		return s.number()
	case c == 't':
		return s.Word("true")
	case c == 'f':
		return s.Word("false")
	case c == 'n':
		return s.Word("null")
	}
	return s.Syntax("a value")
}

// Members walks the object at Pos to its close, handing visit (when not
// nil) each key, decoded, with its value as it stands in the input,
// unparsed.
func (s *Scanner) Members(visit func(key, val []byte)) error {
	if err := s.Open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, more, err := s.Member(first)
		if err != nil || !more {
			return err
		}
		s.Space()
		from := s.Pos
		if err := s.Skip(); err != nil {
			return err
		}
		if visit != nil {
			visit(key, s.Data[from:s.Pos])
		}
	}
}

// Open steps into the object or array at Pos.
func (s *Scanner) Open() error {
	s.Pos++
	if s.Depth++; s.Depth > MaxDepth {
		return fmt.Errorf("nesting deeper than %d at offset %d", MaxDepth, s.Pos)
	}
	return nil
}

// Member advances to the next member of the open object and returns its
// key, positioned at the value; more=false once the object has closed.
func (s *Scanner) Member(first bool) (key []byte, more bool, err error) {
	c := s.Peek()
	if c == '}' {
		s.Pos++
		s.Depth--
		return nil, false, nil
	}
	if !first {
		if c != ',' {
			return nil, false, s.Syntax("',' or '}'")
		}
		s.Pos++
		c = s.Peek()
	}
	if c != '"' {
		return nil, false, s.Syntax("an object key")
	}
	key, plain, err := s.str()
	if err != nil {
		return nil, false, err
	}
	if !plain {
		// Decoded, so that an escaped spelling still names the key it spells.
		key = Unquote(key)
	}
	if s.Peek() != ':' {
		return nil, false, s.Syntax("':'")
	}
	s.Pos++
	return key, true, nil
}

// Element advances to the next element of the open array, positioned at
// the value; more=false once the array has closed.
func (s *Scanner) Element(first bool) (more bool, err error) {
	switch c := s.Peek(); {
	case c == ']':
		s.Pos++
		s.Depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		s.Pos++
		return true, nil
	}
	return false, s.Syntax("',' or ']'")
}

// plainByte marks the bytes a string literal holds as its text as they
// stand: printable ASCII other than the quote and the backslash. A run of
// them needs no look but the table's.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// str passes over the string literal at Pos and returns the bytes between
// its quotes; plain reports that they are ASCII with no escape, so they
// are the string's text as they stand.
func (s *Scanner) str() (raw []byte, plain bool, err error) {
	d := s.Data
	from := s.Pos + 1
	plain = true
	for i := from; ; i++ {
		for i < len(d) && plainByte[d[i]] {
			i++
		}
		if i >= len(d) {
			break
		}
		switch c := d[i]; {
		case c == '"':
			s.Pos = i + 1
			return d[from:i], plain, nil
		case c == '\\':
			plain = false
			if i++; i < len(d) && d[i] == 'u' {
				for n := 0; n < 4; n++ {
					if i++; i >= len(d) || !isHex(d[i]) {
						s.Pos = min(i, len(d))
						return nil, false, s.Syntax("a hex digit")
					}
				}
			} else if i >= len(d) || !isEscape(d[i]) {
				s.Pos = min(i, len(d))
				return nil, false, s.Syntax("an escape character")
			}
		case c < ' ':
			s.Pos = i
			return nil, false, s.Syntax("a string character")
		default: // past ASCII
			plain = false
		}
	}
	s.Pos = len(d)
	return nil, false, s.Syntax("a closing quote")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// isEscape reports whether c may follow a backslash (\u aside).
func isEscape(c byte) bool {
	switch c {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return true
	}
	return false
}

// number passes over the number literal at Pos.
func (s *Scanner) number() error {
	d, i, ok := s.Data, s.Pos, true
	if i < len(d) && d[i] == '-' {
		i++
	}
	if i < len(d) && d[i] == '0' {
		i++
	} else if i, ok = digits(d, i); !ok {
		return s.digitAt(i)
	}
	if i < len(d) && d[i] == '.' {
		if i, ok = digits(d, i+1); !ok {
			return s.digitAt(i)
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if i, ok = digits(d, i); !ok {
			return s.digitAt(i)
		}
	}
	s.Pos = i
	return nil
}

// digits returns the index past the run of digits d holds from i on, and
// whether there was one.
func digits(d []byte, i int) (int, bool) {
	j := i
	for j < len(d) && d[j]-'0' <= 9 {
		j++
	}
	return j, j > i
}

// digitAt reports the missing digit at offset i.
func (s *Scanner) digitAt(i int) error {
	s.Pos = i
	return s.Syntax("a digit")
}

// Word passes over the literal w.
func (s *Scanner) Word(w string) error {
	for i := 0; i < len(w); i++ {
		if s.Pos >= len(s.Data) || s.Data[s.Pos] != w[i] {
			return s.Syntax("the literal " + w)
		}
		s.Pos++
	}
	return nil
}

// Space passes over insignificant whitespace. When there is none, as
// between the tokens of a compact document, it costs one comparison.
func (s *Scanner) Space() {
	if s.Pos < len(s.Data) && s.Data[s.Pos] <= ' ' {
		s.space()
	}
}

// space is Space's loop.
func (s *Scanner) space() {
	d, i := s.Data, s.Pos
	for i < len(d) && (d[i] == ' ' || d[i] == '\t' || d[i] == '\n' || d[i] == '\r') {
		i++
	}
	s.Pos = i
}

// Peek returns the next significant byte without consuming it, 0 at the
// end of the input (where a literal NUL is as unwelcome). It is written to
// inline: every token starts with one.
func (s *Scanner) Peek() (c byte) {
	if s.Pos < len(s.Data) {
		c = s.Data[s.Pos]
	}
	if c > ' ' {
		return c
	}
	return s.peekSpace()
}

// peekSpace is Peek past whitespace, out of line so that Peek stays small.
//
//go:noinline
func (s *Scanner) peekSpace() byte {
	if s.space(); s.Pos < len(s.Data) {
		return s.Data[s.Pos]
	}
	return 0
}

// Syntax reports what stands at Pos where want was expected.
func (s *Scanner) Syntax(want string) error {
	if s.Pos >= len(s.Data) {
		return fmt.Errorf("input ends at offset %d, want %s", s.Pos, want)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", s.Data[s.Pos], s.Pos, want)
}

// Present reports whether a value Members handed over is there and not
// null — encoding/json reads a null as the key's absence.
func Present(val []byte) bool { return len(val) > 0 && val[0] != 'n' }

// Text interprets a value as a string: nil when absent or null, a view into
// the input when the literal needs no decoding, and otherwise what
// encoding/json makes of its escapes and invalid UTF-8. A value of another
// type comes back as it is, with ok=false.
func Text(val []byte) (txt []byte, ok bool) {
	if !Present(val) {
		return nil, true
	}
	if val[0] != '"' {
		return val, false
	}
	return Unquote(val[1 : len(val)-1]), true
}

// Unquote decodes what stands between the quotes of a string literal the
// scanner has passed over, as encoding/json does: escapes resolved, a
// surrogate pair joined, a lone surrogate and each byte of invalid UTF-8
// replaced by U+FFFD. raw itself comes back when there is nothing to
// decode, found in one pass over its plain bytes when it holds only those.
func Unquote(raw []byte) []byte {
	i := 0
	for i < len(raw) && plainByte[raw[i]] {
		i++
	}
	if i == len(raw) || bytes.IndexByte(raw[i:], '\\') < 0 && utf8.Valid(raw[i:]) {
		return raw
	}
	out := append(make([]byte, 0, len(raw)+2*utf8.UTFMax), raw[:i]...)
	for i < len(raw) {
		switch c := raw[i]; {
		case c == '\\':
			i++
			switch raw[i] {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(raw[i+1:])
				i += 4
				if utf16.IsSurrogate(r) {
					// Half of a pair: joined with the escape that follows when
					// that is the other half, U+FFFD on its own.
					other := rune(-1)
					if i+6 < len(raw) && raw[i+1] == '\\' && raw[i+2] == 'u' {
						other = hex4(raw[i+3:])
					}
					if r = utf16.DecodeRune(r, other); r != unicode.ReplacementChar {
						i += 6
					}
				}
				out = utf8.AppendRune(out, r)
			default: // quote, backslash, slash
				out = append(out, raw[i])
			}
			i++
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(raw[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return out
}

// hex4 reads the four hex digits b starts with.
func hex4(b []byte) rune {
	var r rune
	for _, c := range b[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c <= 'F':
			c -= 'A' - 10
		default:
			c -= 'a' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}
