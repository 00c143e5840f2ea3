package traceanalysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"
)

// maxDepth bounds container nesting where encoding/json bounds it, so that
// hostile input cannot run the recursive skipper out of stack.
const maxDepth = 10000

// spanBytesHint sizes the span slice from the input length. The repo's own
// exports spend 145 bytes per event, so dividing by a little less makes one
// allocation hold all their spans.
const spanBytesHint = 128

// scanner is the single pass over a Chrome trace_event document behind Load
// and LoadLenient. It validates JSON structure as it goes but materialises
// nothing it does not need: values are skipped in place, the known keys of
// an event are remembered as views into the input and interpreted once the
// event closes, and name/cat strings are interned so that the spans of a
// run share the few dozen identities they were recorded with.
type scanner struct {
	data  []byte
	pos   int
	depth int

	spans  []Span
	events int               // events closed so far, spans or not
	sim    []int             // tids that thread_name metadata names "sim"
	names  map[string]string // interned names and categories
}

// scan walks data and returns the spans of every event that closed before
// the walk ended, how many events closed, and why the walk ended early
// (nil for a well-formed document). Tracks named "sim" are resolved after
// the walk, since metadata may follow the spans it names.
func scan(data []byte) ([]Span, int, error) {
	s := scanner{data: data, names: make(map[string]string, 64),
		spans: make([]Span, 0, len(data)/spanBytesHint)}
	err := s.document()
	if len(s.sim) > 0 {
		for i := range s.spans {
			if slices.Contains(s.sim, s.spans[i].Rank) {
				s.spans[i].Rank = GlobalRank
			}
		}
	}
	return s.spans, s.events, err
}

// document reads the top-level value: the trace object, or null — an empty
// trace, as it is to encoding/json.
func (s *scanner) document() error {
	switch s.peek() {
	case 'n':
		if err := s.word("null"); err != nil {
			return err
		}
	case '{':
		if err := s.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			key, more, err := s.member(first)
			if err != nil {
				return err
			}
			if !more {
				break
			}
			if string(key) == "traceEvents" {
				err = s.traceEvents()
			} else {
				err = s.skip()
			}
			if err != nil {
				return err
			}
		}
	default:
		return s.syntax("the trace object")
	}
	if s.space(); s.pos < len(s.data) {
		return s.syntax("the end of the document")
	}
	return nil
}

// traceEvents reads the event array (or null). A repeated "traceEvents" key
// replaces what the earlier one held.
func (s *scanner) traceEvents() error {
	s.spans, s.sim, s.events = s.spans[:0], s.sim[:0], 0
	switch s.peek() {
	case 'n':
		return s.word("null")
	case '[':
	default:
		return s.syntax("the traceEvents array")
	}
	if err := s.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		more, err := s.element(first)
		if err != nil || !more {
			return err
		}
		if err := s.event(); err != nil {
			return err
		}
	}
}

// event reads one event object (or null) and, once it has closed, turns it
// into a span or a track name. The raw values of the known keys are kept
// as they pass — the last of a repeated key wins — and interpreted only at
// the close, so a wrongly typed value is an error of the whole event.
func (s *scanner) event() error {
	switch s.peek() {
	case 'n':
		if err := s.word("null"); err != nil {
			return err
		}
		s.events++
		return nil
	case '{':
	default:
		return s.syntax("an event object")
	}
	var name, cat, ph, ts, dur, tid, args []byte
	err := s.members(func(key, val []byte) {
		switch string(key) {
		case "name":
			name = val
		case "cat":
			cat = val
		case "ph":
			ph = val
		case "ts":
			ts = val
		case "dur":
			dur = val
		case "tid":
			tid = val
		case "args":
			args = val
		}
	})
	if err != nil {
		return err
	}

	name, ok := text(name)
	if !ok {
		return s.mistyped("name", name, "a string")
	}
	if cat, ok = text(cat); !ok {
		return s.mistyped("cat", cat, "a string")
	}
	if ph, ok = text(ph); !ok {
		return s.mistyped("ph", ph, "a string")
	}
	startUs, ok := float(ts)
	if !ok {
		return s.mistyped("ts", ts, "a number")
	}
	durUs, ok := float(dur)
	if !ok {
		return s.mistyped("dur", dur, "a number")
	}
	track := 0
	if present(tid) {
		// A track id is an integer literal, as it was when encoding/json
		// decoded it into an int.
		n, err := strconv.ParseInt(string(tid), 10, strconv.IntSize)
		if err != nil {
			return s.mistyped("tid", tid, "an integer")
		}
		track = int(n)
	}

	switch {
	case string(ph) == "X":
		s.spans = append(s.spans, Span{Rank: track, Cat: s.intern(cat), Name: s.intern(name),
			StartS: startUs / 1e6, DurS: durUs / 1e6})
	case string(ph) == "M" && string(name) == "thread_name" && string(argsName(args)) == "sim":
		s.sim = append(s.sim, track)
	}
	s.events++
	return nil
}

// mistyped reports a known key of the event just closed whose value cannot
// be read as what the key holds.
func (s *scanner) mistyped(key string, val []byte, want string) error {
	return fmt.Errorf("event ending at offset %d: %s is %s, want %s", s.pos, key, val, want)
}

// present reports whether a remembered value is there and not null.
func present(val []byte) bool { return len(val) > 0 && val[0] != 'n' }

// text interprets a remembered value as a string: nil when absent or null,
// a view into the input when the literal needs no decoding, and otherwise
// what encoding/json makes of its escapes and invalid UTF-8. A value of
// another type comes back as it is, with ok=false.
func text(val []byte) (txt []byte, ok bool) {
	if !present(val) {
		return nil, true
	}
	if val[0] != '"' {
		return val, false
	}
	if raw := val[1 : len(val)-1]; bytes.IndexByte(raw, '\\') < 0 && utf8.Valid(raw) {
		return raw, true
	}
	var decoded string
	if err := json.Unmarshal(val, &decoded); err != nil {
		return val, false
	}
	return []byte(decoded), true
}

// float interprets a remembered value as a number, 0 when absent or null;
// ok=false for another type or a number no float64 holds.
func float(val []byte) (f float64, ok bool) {
	if !present(val) {
		return 0, true
	}
	if c := val[0]; c != '-' && (c < '0' || c > '9') {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(val), 64)
	return f, err == nil
}

// argsName returns the string under "name" in a remembered args value, nil
// when args is no object or holds no such string.
func argsName(args []byte) []byte {
	if len(args) == 0 || args[0] != '{' {
		return nil
	}
	var name []byte
	sub := scanner{data: args}
	if sub.members(func(key, val []byte) {
		if string(key) == "name" {
			name = val
		}
	}) != nil {
		return nil
	}
	if name, ok := text(name); ok {
		return name
	}
	return nil
}

// intern returns the one string shared by every span with these bytes.
func (s *scanner) intern(b []byte) string {
	if v, ok := s.names[string(b)]; ok {
		return v
	}
	v := string(b)
	s.names[v] = v
	return v
}

// skip passes over one value of any kind, checking its syntax.
func (s *scanner) skip() error {
	switch c := s.peek(); {
	case c == '{':
		return s.members(nil)
	case c == '[':
		if err := s.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := s.element(first)
			if err != nil || !more {
				return err
			}
			if err := s.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, _, err := s.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		return s.number()
	case c == 't':
		return s.word("true")
	case c == 'f':
		return s.word("false")
	case c == 'n':
		return s.word("null")
	}
	return s.syntax("a value")
}

// members walks the object at pos to its close, handing visit (when not
// nil) each key with its value as it stands in the input, unparsed.
func (s *scanner) members(visit func(key, val []byte)) error {
	if err := s.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, more, err := s.member(first)
		if err != nil || !more {
			return err
		}
		s.space()
		from := s.pos
		if err := s.skip(); err != nil {
			return err
		}
		if visit != nil {
			visit(key, s.data[from:s.pos])
		}
	}
}

// open steps into the object or array at pos.
func (s *scanner) open() error {
	s.pos++
	if s.depth++; s.depth > maxDepth {
		return fmt.Errorf("nesting deeper than %d at offset %d", maxDepth, s.pos)
	}
	return nil
}

// member advances to the next member of the open object and returns its
// key, positioned at the value; more=false once the object has closed.
func (s *scanner) member(first bool) (key []byte, more bool, err error) {
	c := s.peek()
	if c == '}' {
		s.pos++
		s.depth--
		return nil, false, nil
	}
	if !first {
		if c != ',' {
			return nil, false, s.syntax("',' or '}'")
		}
		s.pos++
		c = s.peek()
	}
	if c != '"' {
		return nil, false, s.syntax("an object key")
	}
	from := s.pos
	key, plain, err := s.str()
	if err != nil {
		return nil, false, err
	}
	if !plain {
		// Decoded, so that an escaped spelling still names the key it spells.
		key, _ = text(s.data[from:s.pos])
	}
	if s.peek() != ':' {
		return nil, false, s.syntax("':'")
	}
	s.pos++
	return key, true, nil
}

// element advances to the next element of the open array, positioned at
// the value; more=false once the array has closed.
func (s *scanner) element(first bool) (more bool, err error) {
	switch c := s.peek(); {
	case c == ']':
		s.pos++
		s.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		s.pos++
		return true, nil
	}
	return false, s.syntax("',' or ']'")
}

// str passes over the string literal at pos and returns the bytes between
// its quotes; plain reports that they are ASCII with no escape, so they
// are the string's text as they stand.
func (s *scanner) str() (raw []byte, plain bool, err error) {
	from := s.pos + 1
	plain = true
	for i := from; i < len(s.data); i++ {
		switch c := s.data[i]; {
		case c == '"':
			s.pos = i + 1
			return s.data[from:i], plain, nil
		case c == '\\':
			plain = false
			if i++; i < len(s.data) && s.data[i] == 'u' {
				for n := 0; n < 4; n++ {
					if i++; i >= len(s.data) || !isHex(s.data[i]) {
						s.pos = min(i, len(s.data))
						return nil, false, s.syntax("a hex digit")
					}
				}
			} else if i >= len(s.data) || !isEscape(s.data[i]) {
				s.pos = min(i, len(s.data))
				return nil, false, s.syntax("an escape character")
			}
		case c < ' ':
			s.pos = i
			return nil, false, s.syntax("a string character")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	s.pos = len(s.data)
	return nil, false, s.syntax("a closing quote")
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

// number passes over the number literal at pos.
func (s *scanner) number() error {
	if s.at('-') {
		s.pos++
	}
	if s.at('0') {
		s.pos++
	} else if !s.digits() {
		return s.syntax("a digit")
	}
	if s.at('.') {
		if s.pos++; !s.digits() {
			return s.syntax("a digit")
		}
	}
	if s.at('e') || s.at('E') {
		if s.pos++; s.at('+') || s.at('-') {
			s.pos++
		}
		if !s.digits() {
			return s.syntax("a digit")
		}
	}
	return nil
}

// digits passes over a run of digits and reports whether there was one.
func (s *scanner) digits() bool {
	from := s.pos
	for s.pos < len(s.data) && '0' <= s.data[s.pos] && s.data[s.pos] <= '9' {
		s.pos++
	}
	return s.pos > from
}

// word passes over the literal w.
func (s *scanner) word(w string) error {
	for i := 0; i < len(w); i++ {
		if !s.at(w[i]) {
			return s.syntax("the literal " + w)
		}
		s.pos++
	}
	return nil
}

// at reports whether the byte at pos is c.
func (s *scanner) at(c byte) bool { return s.pos < len(s.data) && s.data[s.pos] == c }

// space passes over insignificant whitespace.
func (s *scanner) space() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// peek returns the next significant byte without consuming it, 0 at the
// end of the input (where a literal NUL is as unwelcome).
func (s *scanner) peek() byte {
	if s.space(); s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// syntax reports what stands at pos where want was expected.
func (s *scanner) syntax(want string) error {
	if s.pos >= len(s.data) {
		return fmt.Errorf("input ends at offset %d, want %s", s.pos, want)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", s.data[s.pos], s.pos, want)
}
