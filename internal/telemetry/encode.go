package telemetry

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"sphenergy/internal/jsontext"
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
// format (both written by internal/jsontext). A NaN or infinite time or
// argument fails the export; w may have received earlier chunks by then.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := traceEncoder{w: w, buf: make([]byte, 0, encodeChunk+encodeChunk/8)}
	enc.buf = append(enc.buf, `{"displayTimeUnit":"ms","traceEvents":[`...)
	if t != nil {
		descs := t.descriptors()
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
			events = s.events.AppendTo(events[:0])
			fast = s.fast.AppendTo(fast[:0])
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
		f.open = append(jsontext.AppendString(append(f.open, `"args":{`...), keys[0]), ':')
		f.mid = []byte("},")
	}
	if len(keys) > 1 {
		f.sep = append(jsontext.AppendString([]byte{','}, keys[1]), ':')
	}
	if d.cat != "" {
		f.mid = append(jsontext.AppendString(append(f.mid, `"cat":`...), d.cat), ',')
	}
	f.name = append(jsontext.AppendString([]byte(`"name":`), d.name), `,"ph":"`...)
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
			e.buf = append(jsontext.AppendString(e.buf, a.Key), ':')
			switch a.kind {
			case attrString:
				e.buf = jsontext.AppendString(e.buf, a.s)
			case attrInt:
				e.buf = strconv.AppendInt(e.buf, int64(a.f), 10)
			default:
				e.float(a.f)
			}
		}
		e.buf = append(e.buf, "},"...)
	}
	if ev.cat != "" {
		e.buf = append(jsontext.AppendString(append(e.buf, `"cat":`...), ev.cat), ',')
	}
	e.dur(ev.ph, ev.durS)
	e.buf = append(jsontext.AppendString(append(e.buf, `"name":`...), ev.name), `,"ph":"`...)
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

// float appends f as encoding/json renders a float64. NaN and infinities
// have no JSON form and fail the export.
func (e *traceEncoder) float(f float64) {
	var ok bool
	if e.buf, ok = jsontext.AppendFloat(e.buf, f); !ok && e.err == nil {
		e.err = fmt.Errorf("telemetry: trace event holds unsupported value %s",
			strconv.FormatFloat(f, 'g', -1, 64))
	}
}
