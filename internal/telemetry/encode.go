package telemetry

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// encodeChunk is how many encoded bytes WriteJSON gathers before handing
// them to the writer: large enough that an unbuffered *os.File sees a few
// hundred writes for a 13 MB trace, small enough to stay cache-resident.
const encodeChunk = 64 << 10

// WriteJSON exports the recorded events as Chrome trace_event JSON (the
// "JSON object format": {"traceEvents": [...]}), loadable in Perfetto and
// chrome://tracing. Ranks map to tids of pid 0; times convert from virtual
// seconds to microseconds.
//
// This is where the tracer's deferred cost is paid. Each event is appended
// straight into one reused buffer that reaches w in encodeChunk pieces; an
// interned identity's strings are quoted once per export, not once per
// event. The output is byte-stable and is exactly what encoding/json makes
// of the same events held as maps: keys in sorted order (args, cat, dur,
// name, ph, pid, s, tid, ts; argument keys sorted, the last write of a
// repeated key winning), strings HTML-escaped, floats in its ES6-style
// format. A NaN or infinite time or argument fails the export; w may have
// received earlier chunks by then.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := traceEncoder{w: w, buf: make([]byte, 0, encodeChunk+encodeChunk/8)}
	enc.buf = append(enc.buf, `{"displayTimeUnit":"ms","traceEvents":[`...)
	if t != nil {
		// Descriptors are immutable once appended, so the slice header taken
		// under descMu stays valid while Intern grows the table behind it.
		t.descMu.Lock()
		descs := t.descs
		t.descMu.Unlock()
		frames := make([]descFrame, len(descs))
		for i := range descs {
			frames[i] = newDescFrame(&descs[i])
		}
		// Each shard is copied out under its lock into buffers shared by all
		// shards, so encoding never blocks a recording rank.
		var events []event
		var fast []fastEvent
		for tid := range t.shards {
			s := &t.shards[tid]
			s.mu.Lock()
			events = append(events[:0], s.events...)
			fast = append(fast[:0], s.fast...)
			s.mu.Unlock()
			for i := range events {
				enc.event(tid, &events[i])
				if err := enc.flushFull(); err != nil {
					return err
				}
			}
			for i := range fast {
				if int(fast[i].ref) >= len(frames) {
					continue
				}
				enc.fastEvent(tid, &fast[i], &frames[fast[i].ref])
				if err := enc.flushFull(); err != nil {
					return err
				}
			}
		}
	}
	enc.buf = append(enc.buf, "]}\n"...)
	return enc.flush()
}

// traceEncoder appends trace events to buf and drains it into w.
type traceEncoder struct {
	w     io.Writer
	buf   []byte
	args  []Attr // scratch: one generic event's arguments, sorted by key
	wrote bool   // an event has been written, so the next needs a comma
	err   error  // first unencodable value
}

// flush writes the pending bytes, or reports the first unencodable value
// instead of writing past it.
func (e *traceEncoder) flush() error {
	if e.err != nil {
		return e.err
	}
	_, err := e.w.Write(e.buf)
	e.buf = e.buf[:0]
	return err
}

// flushFull flushes once a chunk has gathered.
func (e *traceEncoder) flushFull() error {
	if len(e.buf) < encodeChunk && e.err == nil {
		return nil
	}
	return e.flush()
}

// descFrame is the constant text of one interned identity's events, quoted
// once per export: everything but the per-event numbers, phase and track.
type descFrame struct {
	open  []byte   // `{`, or `{"args":{"<key>":` up to the first argument value
	sep   []byte   // `,"<key>":` between two argument values
	mid   []byte   // closes args and carries `"cat":"<cat>",`, either optional
	name  []byte   // `"name":"<name>","ph":"`
	vals  [2]uint8 // which of an event's v0, v1 each written argument takes
	nvals int
}

func newDescFrame(d *spanDesc) descFrame {
	f := descFrame{open: []byte{'{'}, vals: [2]uint8{0, 1}}
	keys := d.keys[:d.nkeys]
	if len(keys) == 2 {
		switch {
		case keys[0] == keys[1]: // the later value overwrote the earlier
			keys, f.vals = keys[1:], [2]uint8{1}
		case keys[0] > keys[1]:
			keys, f.vals = []string{keys[1], keys[0]}, [2]uint8{1, 0}
		}
	}
	f.nvals = len(keys)
	if len(keys) > 0 {
		f.open = append(appendQuoted(append(f.open, `"args":{`...), keys[0]), ':')
		f.mid = []byte("},")
	}
	if len(keys) > 1 {
		f.sep = append(appendQuoted([]byte{','}, keys[1]), ':')
	}
	if d.cat != "" {
		f.mid = append(appendQuoted(append(f.mid, `"cat":`...), d.cat), ',')
	}
	f.name = append(appendQuoted([]byte(`"name":`), d.name), `,"ph":"`...)
	return f
}

// fastEvent appends one interned event on track tid.
func (e *traceEncoder) fastEvent(tid int, fe *fastEvent, f *descFrame) {
	e.begin()
	e.buf = append(e.buf, f.open...)
	if f.nvals > 0 {
		v := [2]float64{fe.v0, fe.v1}
		e.float(v[f.vals[0]])
		if f.nvals > 1 {
			e.buf = append(e.buf, f.sep...)
			e.float(v[f.vals[1]])
		}
	}
	e.buf = append(e.buf, f.mid...)
	e.dur(fe.ph, fe.durS)
	e.buf = append(e.buf, f.name...)
	e.end(fe.ph, tid, fe.startS)
}

// event appends one generic event on track tid.
func (e *traceEncoder) event(tid int, ev *event) {
	e.begin()
	e.buf = append(e.buf, '{')
	if n := int(ev.nattr) + len(ev.extra); n > 0 {
		e.args = append(append(e.args[:0], ev.attrs[:ev.nattr]...), ev.extra...)
		// Stable, so that of several writes of one key the last stays last.
		slices.SortStableFunc(e.args, func(a, b Attr) int { return strings.Compare(a.Key, b.Key) })
		e.buf = append(e.buf, `"args":{`...)
		first := true
		for i := range e.args {
			a := &e.args[i]
			if i+1 < n && e.args[i+1].Key == a.Key {
				continue
			}
			if !first {
				e.buf = append(e.buf, ',')
			}
			first = false
			e.buf = append(appendQuoted(e.buf, a.Key), ':')
			switch a.kind {
			case attrString:
				e.buf = appendQuoted(e.buf, a.s)
			case attrInt:
				e.buf = strconv.AppendInt(e.buf, int64(a.f), 10)
			default:
				e.float(a.f)
			}
		}
		e.buf = append(e.buf, "},"...)
	}
	if ev.cat != "" {
		e.buf = append(appendQuoted(append(e.buf, `"cat":`...), ev.cat), ',')
	}
	e.dur(ev.ph, ev.durS)
	e.buf = append(appendQuoted(append(e.buf, `"name":`...), ev.name), `,"ph":"`...)
	e.end(ev.ph, tid, ev.startS)
}

// begin separates an event from the one before it.
func (e *traceEncoder) begin() {
	if e.wrote {
		e.buf = append(e.buf, ',')
	}
	e.wrote = true
}

// dur appends the duration field complete events carry.
func (e *traceEncoder) dur(ph byte, durS float64) {
	if ph == phaseComplete {
		e.buf = append(e.buf, `"dur":`...)
		e.float(durS * 1e6)
		e.buf = append(e.buf, ',')
	}
}

// end appends the fields that sort after "name" — the phase (one of the
// package's four ASCII codes, so it needs no quoting pass), pid, the
// thread scope of instants, tid and ts — and closes the event.
func (e *traceEncoder) end(ph byte, tid int, startS float64) {
	e.buf = append(e.buf, ph)
	e.buf = append(e.buf, `","pid":0,`...)
	if ph == phaseInstant {
		e.buf = append(e.buf, `"s":"t",`...)
	}
	e.buf = strconv.AppendInt(append(e.buf, `"tid":`...), int64(tid), 10)
	e.buf = append(e.buf, `,"ts":`...)
	e.float(startS * 1e6)
	e.buf = append(e.buf, '}')
}

// float appends f as encoding/json renders a float64: shortest round-trip
// digits, plain notation except below 1e-6 and from 1e21, where the
// exponent form drops the zero strconv pads a one-digit negative exponent
// with. NaN and infinities have no JSON form and fail the export.
func (e *traceEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("telemetry: trace event holds unsupported value %s",
				strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if n := len(e.buf); format == 'e' && e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
		e.buf[n-2] = e.buf[n-1]
		e.buf = e.buf[:n-1]
	}
}

const hexDigits = "0123456789abcdef"

// appendQuoted appends s as a JSON string literal under encoding/json's
// default rules: control characters, quote and backslash escaped, so are
// <, > and & (HTML-safe output) and U+2028/U+2029 (JSONP-safe), and each
// byte of invalid UTF-8 becomes U+FFFD.
func appendQuoted(dst []byte, s string) []byte {
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
