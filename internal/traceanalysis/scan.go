package traceanalysis

import (
	"fmt"
	"slices"
	"strconv"

	"sphenergy/internal/jsontext"
)

// spanBytesHint sizes the span slice from the input length. The repo's own
// exports spend 145 bytes per event, so dividing by a little less makes one
// allocation hold all their spans.
const spanBytesHint = 128

// scanner is the single pass over a Chrome trace_event document behind Load
// and LoadLenient, on the repository's shared JSON scanner: values are
// skipped in place, the known keys of an event are remembered as views into
// the input and interpreted once the event closes, and name/cat strings are
// interned so that the spans of a run share the few dozen identities they
// were recorded with.
type scanner struct {
	jsontext.Scanner

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
	s := scanner{Scanner: jsontext.Scanner{Data: data}, names: make(map[string]string, 64),
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
	switch s.Peek() {
	case 'n':
		if err := s.Word("null"); err != nil {
			return err
		}
	case '{':
		if err := s.Open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			key, more, err := s.Member(first)
			if err != nil {
				return err
			}
			if !more {
				break
			}
			if string(key) == "traceEvents" {
				err = s.traceEvents()
			} else {
				err = s.Skip()
			}
			if err != nil {
				return err
			}
		}
	default:
		return s.Syntax("the trace object")
	}
	if s.Space(); s.Pos < len(s.Data) {
		return s.Syntax("the end of the document")
	}
	return nil
}

// traceEvents reads the event array (or null). A repeated "traceEvents" key
// replaces what the earlier one held.
func (s *scanner) traceEvents() error {
	s.spans, s.sim, s.events = s.spans[:0], s.sim[:0], 0
	switch s.Peek() {
	case 'n':
		return s.Word("null")
	case '[':
	default:
		return s.Syntax("the traceEvents array")
	}
	if err := s.Open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		more, err := s.Element(first)
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
	switch s.Peek() {
	case 'n':
		if err := s.Word("null"); err != nil {
			return err
		}
		s.events++
		return nil
	case '{':
	default:
		return s.Syntax("an event object")
	}
	var name, cat, ph, ts, dur, tid, args []byte
	err := s.Members(func(key, val []byte) {
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

	name, ok := jsontext.Text(name)
	if !ok {
		return s.mistyped("name", name, "a string")
	}
	if cat, ok = jsontext.Text(cat); !ok {
		return s.mistyped("cat", cat, "a string")
	}
	if ph, ok = jsontext.Text(ph); !ok {
		return s.mistyped("ph", ph, "a string")
	}
	startUs, ok := jsontext.Float(ts)
	if !ok {
		return s.mistyped("ts", ts, "a number")
	}
	durUs, ok := jsontext.Float(dur)
	if !ok {
		return s.mistyped("dur", dur, "a number")
	}
	track := 0
	if jsontext.Present(tid) {
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
	return fmt.Errorf("event ending at offset %d: %s is %s, want %s", s.Pos, key, val, want)
}

// argsName returns the string under "name" in a remembered args value, nil
// when args is no object or holds no such string.
func argsName(args []byte) []byte {
	if len(args) == 0 || args[0] != '{' {
		return nil
	}
	var name []byte
	sub := jsontext.Scanner{Data: args}
	if sub.Members(func(key, val []byte) {
		if string(key) == "name" {
			name = val
		}
	}) != nil {
		return nil
	}
	if name, ok := jsontext.Text(name); ok {
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
