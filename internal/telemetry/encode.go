package telemetry

import (
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"

	"sphenergy/internal/jsontext"
)

// The export's pipeline: each shard's records are cut into pieces where
// they lie, one storage block (blocks.RecordBlock bytes, which decode on
// their own) each, encodeWorkers goroutines encode pieces side by side, and
// WriteJSON writes them in shard order as each is ready. At most
// encodePieces pieces are in flight, each encoded into a buffer of its own
// that starts at encodeChunk bytes — a full block of a real run, some 380
// events, encodes to 53–61 KB in the benchmark's observed runs — and is
// reused for piece after piece.
const (
	encodeWorkers = 2
	encodePieces  = 2 * encodeWorkers
	encodeChunk   = 80 << 10
)

// WriteJSON exports the recorded events as Chrome trace_event JSON (the
// "JSON object format": {"traceEvents": [...]}), loadable in Perfetto and
// chrome://tracing. Ranks map to tids of pid 0; times convert from virtual
// seconds to microseconds.
//
// This is where the tracer's deferred cost is paid. Events are appended
// straight into reused buffers, by two workers at once, and reach w in
// recording order, a piece at a time; an identity's strings are quoted once
// per export, not once per event. The output is byte-stable and is exactly
// what encoding/json makes of the same events held as maps: keys in sorted
// order (args, cat, dur, name, ph, pid, s, tid, ts; argument keys sorted,
// the last write of a repeated key winning), strings HTML-escaped, floats in
// its ES6-style format (both written by internal/jsontext). A NaN or
// infinite time or argument fails the export; w may have received earlier
// pieces by then.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if _, err := io.WriteString(w, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	if t != nil {
		if err := t.writeEvents(w); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// piece is one block of a shard's records and, once a worker has been
// through it, their encoding: every event with the comma that separates it
// from the one before.
type piece struct {
	tid   int
	block []byte
	buf   []byte
	err   error         // first unencodable value
	done  chan struct{} // a worker has encoded the piece
}

// writeEvents encodes every shard's events and writes them to w in shard
// order. The workers decode the records in the shards' own blocks: the
// tracer records nothing while it is exported.
func (t *Tracer) writeEvents(w io.Writer) error {
	descs := t.descs
	frames := make([]descFrame, len(descs))
	for i := range descs {
		frames[i] = newDescFrame(&descs[i])
	}
	work := make(chan *piece, encodePieces) // never more pieces in flight: sends do not block
	var workers sync.WaitGroup
	for range encodeWorkers {
		workers.Add(1)
		go func() {
			defer workers.Done()
			var enc traceEncoder
			for p := range work {
				enc.buf, enc.err = p.buf[:0], nil
				var ev event
				for at, end := 0, 0.0; at < len(p.block); end = ev.end() {
					if at = ev.decode(p.block, at, end); int(ev.ref) < len(frames) {
						enc.event(p.tid, &ev, &frames[ev.ref])
					}
				}
				p.buf, p.err = enc.buf, enc.err
				p.done <- struct{}{}
			}
		}()
	}
	defer func() {
		close(work)
		workers.Wait()
	}()

	var ring [encodePieces]piece
	for i := range ring {
		ring[i].buf = make([]byte, 0, encodeChunk)
		ring[i].done = make(chan struct{}, 1)
	}
	cut, written := 0, 0 // pieces handed to the workers, pieces written
	first := true        // no event has been written: drop the next comma
	writeNext := func() error {
		p := &ring[written%encodePieces]
		<-p.done
		written++
		if p.err != nil {
			return p.err
		}
		out := p.buf
		if first && len(out) > 0 {
			out, first = out[1:], false
		}
		_, err := w.Write(out)
		return err
	}

	for tid := range t.shards {
		recs := &t.shards[tid].recs
		for i := range recs.Blocks() {
			if cut-written == encodePieces {
				if err := writeNext(); err != nil {
					return err
				}
			}
			p := &ring[cut%encodePieces]
			p.tid, p.block = tid, recs.Block(i)
			work <- p
			cut++
		}
	}
	for written < cut {
		if err := writeNext(); err != nil {
			return err
		}
	}
	return nil
}

// traceEncoder appends trace events to buf.
type traceEncoder struct {
	buf []byte
	err error // first unencodable value
}

// descFrame is the constant text of one identity's events, quoted once per
// export: everything but the per-event numbers, phase and track.
type descFrame struct {
	// text[0] opens the event and runs up to the first float value;
	// text[i+1] follows value i: the next argument key, or the close of
	// args and `"cat":"<cat>",`, either optional. The constant string
	// argument sits inside the text, in its sorted place.
	text  [3][]byte
	vals  [2]uint8 // which of an event's v0, v1 each written value takes
	nvals int
	name  []byte // `"name":"<name>","ph":"`
}

func newDescFrame(d *spanDesc) descFrame {
	type arg struct {
		key   string
		val   uint8 // the event value it takes: 0 for v0, 1 for v1
		label bool  // the constant string instead
	}
	args := make([]arg, 0, 3)
	for i, k := range d.keys[:d.nkeys] {
		args = append(args, arg{key: k, val: uint8(i)})
	}
	if d.labeled {
		args = append(args, arg{key: d.label, label: true})
	}
	// Stable, so that of several writes of one key the last stays last.
	slices.SortStableFunc(args, func(a, b arg) int { return strings.Compare(a.key, b.key) })

	var f descFrame
	text := []byte{'{'}
	if len(args) > 0 {
		text = append(text, `"args":{`...)
	}
	first := true
	for i, a := range args {
		if i+1 < len(args) && args[i+1].key == a.key {
			continue
		}
		if !first {
			text = append(text, ',')
		}
		first = false
		text = append(jsontext.AppendString(text, a.key), ':')
		if a.label {
			text = jsontext.AppendString(text, d.value)
			continue
		}
		f.text[f.nvals], f.vals[f.nvals] = text, a.val
		f.nvals++
		text = nil
	}
	if len(args) > 0 {
		text = append(text, "},"...)
	}
	if d.cat != "" {
		text = append(jsontext.AppendString(append(text, `"cat":`...), d.cat), ',')
	}
	f.text[f.nvals] = text
	f.name = append(jsontext.AppendString([]byte(`"name":`), d.name), `,"ph":"`...)
	return f
}

// event appends one event on track tid.
func (e *traceEncoder) event(tid int, ev *event, f *descFrame) {
	e.begin()
	v := [2]float64{ev.v0, ev.v1}
	for i := range f.nvals {
		e.buf = append(e.buf, f.text[i]...)
		e.float(v[f.vals[i]])
	}
	e.buf = append(e.buf, f.text[f.nvals]...)
	e.dur(ev.ph, ev.durS)
	e.buf = append(e.buf, f.name...)
	e.end(ev.ph, tid, ev.startS)
}

// begin separates an event from the one before it.
func (e *traceEncoder) begin() { e.buf = append(e.buf, ',') }

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
