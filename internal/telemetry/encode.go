package telemetry

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"sphenergy/internal/jsontext"
	"sphenergy/internal/par"
)

// traceBytesPerEvent sizes a shard's export buffer from its event count:
// the repository's own traces spend 145 bytes per event.
const traceBytesPerEvent = 160

// WriteJSON exports the recorded events as Chrome trace_event JSON (the
// "JSON object format": {"traceEvents": [...]}), loadable in Perfetto and
// chrome://tracing. Ranks map to tids of pid 0; times convert from virtual
// seconds to microseconds.
//
// This is where the tracer's deferred cost is paid. Each shard is encoded
// into a buffer of its own — the shards concurrently, through par.Tasks,
// each under its lock, so a rank still recording waits for the encoding of
// its own track at most — and the buffers reach w in shard order, one Write
// each: the file is the same whatever the worker count. An event is
// appended straight into the buffer, an interned identity's strings quoted
// once per export, not once per event. The output is byte-stable and is
// exactly what encoding/json makes of the same events held as maps: keys in
// sorted order (args, cat, dur, name, ph, pid, s, tid, ts; argument keys
// sorted, the last write of a repeated key winning), strings HTML-escaped,
// floats in its ES6-style format (both written by internal/jsontext). A NaN
// or infinite time or argument fails the export before w has received
// anything.
func (t *Tracer) WriteJSON(w io.Writer) error {
	const header, trailer = `{"displayTimeUnit":"ms","traceEvents":[`, "]}\n"
	if t == nil {
		_, err := io.WriteString(w, header+trailer)
		return err
	}
	descs := t.descriptors()
	frames := make([]descFrame, len(descs))
	for i := range descs {
		frames[i] = newDescFrame(&descs[i])
	}
	encs := make([]traceEncoder, len(t.shards))
	par.Tasks(len(t.shards), func(tid int) {
		s, enc := &t.shards[tid], &encs[tid]
		s.mu.Lock()
		defer s.mu.Unlock()
		enc.buf = make([]byte, 0, (s.events.Len()+s.fast.Len())*traceBytesPerEvent)
		s.events.Runs(func(run []event) {
			for i := range run {
				enc.event(tid, &run[i])
			}
		})
		s.fast.Runs(func(run []fastEvent) {
			for i := range run {
				if fe := &run[i]; int(fe.ref) < len(frames) {
					enc.fastEvent(tid, fe, &frames[fe.ref])
				}
			}
		})
	})
	for i := range encs {
		if encs[i].err != nil {
			return encs[i].err
		}
	}
	if _, err := io.WriteString(w, header); err != nil {
		return err
	}
	first := true
	for i := range encs {
		// Every event was written with a comma before it; the file's first
		// leaves its own behind.
		if buf := encs[i].buf; len(buf) > 0 {
			if first {
				buf, first = buf[1:], false
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, trailer)
	return err
}

// traceEncoder appends one shard's trace events to buf, a comma before
// each.
type traceEncoder struct {
	buf  []byte
	args []Attr // scratch: one generic event's arguments, sorted by key
	err  error  // first unencodable value
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
	e.buf = append(append(e.buf, ','), f.open...)
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
	e.buf = append(e.buf, ',', '{')
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
