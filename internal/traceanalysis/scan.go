package traceanalysis

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sync/atomic"

	"sphenergy/internal/jsontext"
	"sphenergy/internal/par"
)

// spanBytesHint sizes the span slice from the input length. The repo's own
// exports spend 145 bytes per event, so dividing by a little less makes one
// allocation hold all their spans.
const spanBytesHint = 128

// splitMin is the smallest document scan reads in two halves at once: below
// it a goroutine and a second intern table cost more than half the walk.
const splitMin = 1 << 20

// scanner is the single pass over a Chrome trace_event document behind Load
// and LoadFile, on the repository's shared JSON scanner: values are
// skipped in place, the known keys of an event are remembered as views into
// the input and interpreted once the event closes, and name/cat strings are
// interned so that the spans of a run share the few dozen identities they
// were recorded with.
type scanner struct {
	jsontext.Scanner

	spans []Span
	sim   []int             // tids that thread_name metadata names "sim"
	names map[string]string // interned names and categories, by literal

	tail *tail       // the second half, scanning ahead; nil when none
	stop atomic.Bool // set when this scanner is a tail nobody will join
}

func newScanner(data []byte, spanHint int) *scanner {
	return &scanner{Scanner: jsontext.Scanner{Data: data}, names: make(map[string]string, 64),
		spans: make([]Span, 0, spanHint)}
}

// scan walks data and returns the spans of every event that closed before
// the walk ended and why the walk ended early (nil for a well-formed
// document). A long document is read in two halves
// at once when there is a second CPU, split at the first event boundary
// past its middle; the result is the serial walk's to the byte.
func scan(data []byte) ([]Span, error) {
	return scanWith(data, split(data))
}

// split starts the tail of scan's walk over data: from the first event
// boundary past its middle, when data is at least splitMin long and there
// is a second CPU; nil otherwise.
func split(data []byte) *tail {
	if len(data) < splitMin || par.MaxWorkers() < 2 {
		return nil
	}
	if at := boundary(data, len(data)/2); at >= 0 {
		return startTail(data, at+1)
	}
	return nil
}

// boundary returns the byte of the '}' of the first "},{" in data at or
// past mid, -1 when there is none: the guess of where an event ends and the
// next begins.
func boundary(data []byte, mid int) int {
	if i := bytes.Index(data[mid:], []byte("},{")); i >= 0 {
		return mid + i
	}
	return -1
}

// scanWith is scan with t, when not nil, scanning the second half. Tracks
// named "sim" are resolved after the walk, since metadata may follow the
// spans it names.
func scanWith(data []byte, t *tail) ([]Span, error) {
	s := newScanner(data, len(data)/spanBytesHint)
	s.tail = t
	err := s.document()
	s.dropTail()
	if len(s.sim) > 0 {
		for i := range s.spans {
			if slices.Contains(s.sim, s.spans[i].Rank) {
				s.spans[i].Rank = GlobalRank
			}
		}
	}
	return s.spans, err
}

// readFile reads the file at path as os.ReadFile does. A regular file that
// scan would split is read in two halves at once (readHalves), and comes
// with the tail already scanning its second half; any other, or one whose
// halves cannot be read whole, is read by os.ReadFile, with no tail.
func readFile(path string) ([]byte, *tail, error) {
	if par.MaxWorkers() > 1 {
		if data, t := readHalves(path); data != nil {
			return data, t, nil
		}
	}
	data, err := os.ReadFile(path)
	return data, nil, err
}

// readHalves reads the file at path into one buffer, the calling goroutine
// its first half and a goroutine of its own the second. That goroutine then
// finds the first event boundary of its half and, as the tail, scans on from
// it while the caller scans the first half; the caller touches the second
// half only once it has been read. It returns nil when the file is no
// regular file of at least splitMin bytes, when a read fails, or when the
// file does not end where Stat said: os.ReadFile then reads it, to the
// bytes or the error it would have given anyway.
func readHalves(path string) ([]byte, *tail) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil || !fi.Mode().IsRegular() || fi.Size() < splitMin || fi.Size() >= math.MaxInt {
		return nil, nil
	}
	size := int(fi.Size())
	buf := make([]byte, size+1) // one byte past the end, to see the file end
	data, mid := buf[:size], size/2
	type half struct {
		whole bool  // the second half was read, and the file ended with it
		t     *tail // the scan of the second half; nil without a boundary
	}
	second := make(chan half, 1)
	go func() {
		n, err := f.ReadAt(buf[mid:], int64(mid))
		h := half{whole: n == size-mid && err == io.EOF}
		if h.whole {
			if at := boundary(data, mid); at >= 0 {
				h.t = newTail(data, at+1)
			}
		}
		second <- h
		if h.t != nil {
			h.t.run()
		}
	}()
	_, err = f.ReadAt(data[:mid], 0)
	h := <-second
	if err != nil || !h.whole {
		if h.t != nil {
			h.t.drop()
		}
		return nil, nil
	}
	return data, h.t
}

// tail scans the events of a traceEvents array from byte from on, on its
// own goroutine, as the array loop would if it stood at from between two
// events: at array depth 2 (inside the trace object and the array), over the
// same Data so that its error offsets are the document's. Whether from is
// such a place is known only when the main walk gets there, so the guess is
// checked then and the tail's result adopted or dropped (scanner.elements).
type tail struct {
	from int
	s    *scanner
	err  error
	done chan struct{}
}

// newTail returns a tail set to scan data from byte from on. Its span slice
// is made by run, on the tail's goroutine.
func newTail(data []byte, from int) *tail {
	t := &tail{from: from, s: newScanner(data, 0), done: make(chan struct{})}
	t.s.Pos, t.s.Depth = from, 2
	return t
}

// startTail sets a tail scanning from byte from on.
func startTail(data []byte, from int) *tail {
	t := newTail(data, from)
	go t.run()
	return t
}

// run walks the tail's events, on a goroutine of its own, and closes done.
func (t *tail) run() {
	defer close(t.done)
	t.s.spans = make([]Span, 0, (len(t.s.Data)-t.from)/spanBytesHint)
	t.err = t.s.elements(false)
}

// drop stops the tail at the end of the event it is reading and waits for
// it; its result is never read.
func (t *tail) drop() {
	t.s.stop.Store(true)
	<-t.done
}

// errAbandoned ends a tail whose guess the main walk found to be wrong.
var errAbandoned = errors.New("abandoned")

// join adopts the tail's walk as the rest of this array's: its spans and
// track names appended, its position, depth and error taken over.
func (s *scanner) join() error {
	t := s.tail
	s.tail = nil
	<-t.done
	s.spans = append(s.spans, t.s.spans...)
	s.sim = append(s.sim, t.s.sim...)
	s.Pos, s.Depth = t.s.Pos, t.s.Depth
	return t.err
}

// dropTail drops a tail that will not be joined.
func (s *scanner) dropTail() {
	if s.tail != nil {
		s.tail.drop()
		s.tail = nil
	}
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
	s.spans, s.sim = s.spans[:0], s.sim[:0]
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
	return s.elements(true)
}

// elements reads the open array's events up to its close; first says that
// none has been read yet. Between two events, the loop is where a tail's
// guess is settled: arriving exactly at its start, the walk joins it;
// passing it, the guess fell inside a string or a nested value, and the walk
// drops it and goes on alone.
func (s *scanner) elements(first bool) error {
	for ; ; first = false {
		if s.tail != nil && !first && s.Pos >= s.tail.from {
			if s.Pos == s.tail.from {
				return s.join()
			}
			s.dropTail()
		}
		if s.stop.Load() {
			return errAbandoned
		}
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
		return s.Word("null")
	case '{':
	default:
		return s.Syntax("an event object")
	}
	if err := s.Open(); err != nil {
		return err
	}
	// Members' loop, written out so that the key switch runs in place: a
	// call through a visit closure for each member of every event cost
	// more than the switch.
	var name, cat, ph, ts, dur, tid, args []byte
	for first := true; ; first = false {
		key, more, err := s.Member(first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		s.Space()
		from := s.Pos
		if err := s.Skip(); err != nil {
			return err
		}
		switch val := s.Data[from:s.Pos]; string(key) {
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
	}

	// name and cat stay literals until a span interns them.
	if !isText(name) {
		return s.mistyped("name", name, "a string")
	}
	if !isText(cat) {
		return s.mistyped("cat", cat, "a string")
	}
	ph, ok := jsontext.Text(ph)
	if !ok {
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
	// A track id is an integer literal, as it was when encoding/json
	// decoded it into an int.
	track, ok := jsontext.Int(tid)
	if !ok {
		return s.mistyped("tid", tid, "an integer")
	}

	switch {
	case string(ph) == "X":
		s.spans = append(s.spans, Span{Rank: track, Cat: s.intern(cat), Name: s.intern(name),
			StartS: startUs / 1e6, DurS: durUs / 1e6})
	case string(ph) == "M" && string(text(name)) == "thread_name" && string(argsName(args)) == "sim":
		s.sim = append(s.sim, track)
	}
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

// isText reports whether a remembered value reads as a string, as
// jsontext.Text would: a string literal, null or absent.
func isText(val []byte) bool { return !jsontext.Present(val) || val[0] == '"' }

// text is what a remembered string value says.
func text(val []byte) []byte {
	txt, _ := jsontext.Text(val)
	return txt
}

// intern returns the one string shared by every span whose name or
// category is spelled as the literal val (null or absent: ""). The table is
// keyed by the literal as it stands in the input, so a repeated name costs
// one lookup and is not unquoted again; the string is a slice of that key
// unless the literal holds escapes.
func (s *scanner) intern(val []byte) string {
	if !jsontext.Present(val) {
		return ""
	}
	if v, ok := s.names[string(val)]; ok {
		return v
	}
	k := string(val)
	v := k[1 : len(k)-1]
	if txt := text(val); string(txt) != v {
		v = string(txt)
	}
	s.names[k] = v
	return v
}
