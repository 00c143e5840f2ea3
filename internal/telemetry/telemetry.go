// Package telemetry is the unified observability substrate of the
// repository: a span tracer recording nestable named spans into lock-cheap
// per-rank buffers with Chrome trace_event JSON export, and a metrics
// registry of counters, gauges and histograms with Prometheus text-format
// exposition and JSON snapshots.
//
// The design follows the paper's §III-B non-perturbation requirement: every
// entry point is safe on a nil receiver and returns immediately, so code can
// be instrumented unconditionally — a run without a tracer or registry pays
// only a nil check. Hot-path recording is allocation-free for up to two
// attributes (attributes are tagged unions copied inline into the event
// buffer, not boxed interfaces) and takes one short per-rank (sharded)
// mutex; all serialization work happens at export time. Call sites that
// fire every step can go further and intern the span identity once
// (Intern + CompleteRef/InstantRef), reducing each record to a 40-byte
// struct write with no string traffic at all.
//
// What was deferred is paid once, and flatly, when the run is over: the
// export (WriteJSON) appends every event in a fixed field order — no
// container per span, an interned identity's strings quoted once; the
// in-process read-back is a visit of the records where they lie
// (VisitSpans) or, for callers that want the slice, Spans, two allocations
// whatever the span count. All take the shard locks, so they are safe while
// ranks still record. A shard keeps its records in fixed blocks
// (internal/blocks): recording never copies what is already recorded.
package telemetry

import (
	"fmt"
	"sync"

	"sphenergy/internal/atomicio"
	"sphenergy/internal/blocks"
)

// attrKind tags the payload of an Attr.
type attrKind uint8

const (
	attrString attrKind = iota
	attrInt
	attrFloat
)

// Attr is one key/value attribute attached to a span or event, rendered
// into the Chrome trace "args" object. Construct with String, Int or Float;
// the value lives inline (no interface boxing), keeping span recording off
// the heap.
type Attr struct {
	Key  string
	s    string
	f    float64
	kind attrKind
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, s: value, kind: attrString} }

// Int builds an integer attribute.
func Int(key string, value int) Attr { return Attr{Key: key, f: float64(value), kind: attrInt} }

// Float builds a float attribute.
func Float(key string, value float64) Attr { return Attr{Key: key, f: value, kind: attrFloat} }

// Value unboxes the attribute (string, int64 or float64).
func (a Attr) Value() any {
	switch a.kind {
	case attrString:
		return a.s
	case attrInt:
		return int64(a.f)
	default:
		return a.f
	}
}

// Float64 returns the attribute's numeric value, 0 for string attributes.
// Span read-back consumers (energy attribution) use this to pull metric
// args like "energy_j" out of kernel spans without type switches.
func (a Attr) Float64() float64 {
	if a.kind == attrString {
		return 0
	}
	return a.f
}

// GlobalTrack addresses the tracer's extra whole-run track (step spans, job
// phases) instead of a rank track.
const GlobalTrack = -1

// phase codes follow the Chrome trace_event format.
const (
	phaseComplete = 'X' // complete event: ts + dur
	phaseInstant  = 'i' // instant event
	phaseCounter  = 'C' // counter sample
	phaseMeta     = 'M' // metadata (track names)
)

// inlineAttrs is the attribute count recorded without heap allocation.
const inlineAttrs = 2

// event is one recorded trace event. Times are virtual simulation seconds;
// export converts to the microseconds Chrome expects.
type event struct {
	name   string
	cat    string
	startS float64
	durS   float64
	attrs  [inlineAttrs]Attr
	extra  []Attr // overflow beyond inlineAttrs, rare
	nattr  uint8
	ph     byte
}

// shard is one rank's event buffer. Each rank appends under its own mutex,
// so concurrent ranks never contend with each other. Generic and interned
// events live in separate buffers; the trace_event format does not require
// chronological order, so export emits them back to back.
type shard struct {
	mu     sync.Mutex
	events blocks.Seq[event]
	fast   blocks.Seq[fastEvent]
}

// add constructs the event directly in the buffer — a single struct write,
// no intermediate copies. The caller's variadic attrs slice is only read
// here, so escape analysis keeps it on the caller's stack.
func (s *shard) add(ph byte, cat, name string, startS, durS float64, attrs []Attr) {
	s.mu.Lock()
	e, _ := s.events.Push()
	*e = event{name: name, cat: cat, startS: startS, durS: durS, ph: ph}
	e.nattr = uint8(copy(e.attrs[:], attrs))
	if len(attrs) > inlineAttrs {
		e.extra = append([]Attr(nil), attrs[inlineAttrs:]...)
	}
	s.mu.Unlock()
}

// fastEvent is one recorded event on the interned path: a 40-byte POD
// record whose identity (category, name, attribute keys) lives in the
// tracer's descriptor table. Hot loops record these instead of full events
// — no strings, no variadic slice, one small struct write under the shard
// mutex.
type fastEvent struct {
	startS float64
	durS   float64
	v0, v1 float64
	ref    SpanRef
	ph     byte
}

// addFast appends one interned event in place.
func (s *shard) addFast(ph byte, ref SpanRef, startS, durS, v0, v1 float64) {
	s.mu.Lock()
	fe, _ := s.fast.Push()
	*fe = fastEvent{startS: startS, durS: durS, v0: v0, v1: v1, ref: ref, ph: ph}
	s.mu.Unlock()
}

// SpanRef identifies a span descriptor interned with Tracer.Intern. Refs
// are only meaningful on the tracer that issued them.
type SpanRef uint32

// spanDesc is the interned identity of a hot span: its category, name, and
// up to two float-valued attribute keys.
type spanDesc struct {
	cat, name string
	keys      [inlineAttrs]string
	nkeys     uint8
}

// spanKey indexes the RecordSpan descriptor cache without allocating.
type spanKey struct{ cat, name string }

// Tracer records spans and events for one run. A nil *Tracer is a valid
// no-op sink: all methods return immediately. Spans recorded on the same
// rank track nest by containment when rendered in Perfetto or
// chrome://tracing.
type Tracer struct {
	shards []shard // one per rank, plus one global track at the end

	descMu sync.Mutex // guards descs growth; interning is cold-path
	descs  []spanDesc
	cache  sync.Map // spanKey → SpanRef, backing RecordSpan
}

// NewTracer creates a tracer with one track per rank plus the global track.
func NewTracer(ranks int) *Tracer {
	if ranks < 0 {
		ranks = 0
	}
	return &Tracer{shards: make([]shard, ranks+1)}
}

// Intern registers a span identity — category, name, and up to two
// attribute keys whose values are supplied per event — returning a ref for
// CompleteRef/InstantRef. Interning the identity once moves all string
// handling off the recording path; callers typically intern at setup or
// memoize per call site. Interning the same identity twice returns the
// same ref. On a nil tracer Intern returns 0; the ref is inert.
func (t *Tracer) Intern(category, name string, keys ...string) SpanRef {
	if t == nil {
		return 0
	}
	d := spanDesc{cat: category, name: name}
	d.nkeys = uint8(copy(d.keys[:], keys))
	t.descMu.Lock()
	defer t.descMu.Unlock()
	for i := range t.descs {
		if t.descs[i] == d {
			return SpanRef(i)
		}
	}
	t.descs = append(t.descs, d)
	return SpanRef(len(t.descs) - 1)
}

// CompleteRef records a finished span of an interned identity. v0 and v1
// fill the descriptor's attribute keys in order; surplus values are
// dropped at export.
func (t *Tracer) CompleteRef(rank int, ref SpanRef, startS, durS, v0, v1 float64) {
	if t == nil {
		return
	}
	t.shardFor(rank).addFast(phaseComplete, ref, startS, durS, v0, v1)
}

// InstantRef records a zero-duration event of an interned identity at tsS.
func (t *Tracer) InstantRef(rank int, ref SpanRef, tsS, v0, v1 float64) {
	if t == nil {
		return
	}
	t.shardFor(rank).addFast(phaseInstant, ref, tsS, 0, v0, v1)
}

// shardFor maps a rank (or GlobalTrack) to its buffer. Out-of-range ranks
// land on the global track rather than panicking.
func (t *Tracer) shardFor(rank int) *shard {
	if rank < 0 || rank >= len(t.shards)-1 {
		return &t.shards[len(t.shards)-1]
	}
	return &t.shards[rank]
}

// Complete records a finished span [startS, startS+durS) on a rank track.
func (t *Tracer) Complete(rank int, category, name string, startS, durS float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.shardFor(rank).add(phaseComplete, category, name, startS, durS, attrs)
}

// Instant records a zero-duration event at tsS on a rank track.
func (t *Tracer) Instant(rank int, category, name string, tsS float64, attrs ...Attr) {
	if t == nil {
		return
	}
	t.shardFor(rank).add(phaseInstant, category, name, tsS, 0, attrs)
}

// Counter records a counter sample at tsS; each attribute becomes one series
// of the named counter (rendered as a stacked area in the trace viewer).
func (t *Tracer) Counter(rank int, name string, tsS float64, values ...Attr) {
	if t == nil {
		return
	}
	t.shardFor(rank).add(phaseCounter, "", name, tsS, 0, values)
}

// RecordSpan is the plain-span entry point used through small local
// interfaces (e.g. mpisim's SpanRecorder), keeping subsystem packages free
// of a telemetry dependency. Each (category, name) identity is interned on
// first use, so repeated spans record on the fast path.
func (t *Tracer) RecordSpan(rank int, category, name string, startS, durS float64) {
	if t == nil {
		return
	}
	key := spanKey{cat: category, name: name}
	ref, ok := t.cache.Load(key)
	if !ok {
		ref, _ = t.cache.LoadOrStore(key, t.Intern(category, name))
	}
	t.CompleteRef(rank, ref.(SpanRef), startS, durS, 0, 0)
}

// SetTrackName labels a rank track ("rank 3", "sim") in the exported trace.
func (t *Tracer) SetTrackName(rank int, name string) {
	if t == nil {
		return
	}
	t.shardFor(rank).add(phaseMeta, "", "thread_name", 0, 0,
		[]Attr{String("name", name)})
}

// Reset drops all recorded events but keeps the shard buffers' capacity,
// so a long-lived process can export one run's trace and reuse the tracer
// for the next run without reallocating.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		s.events.Reset()
		s.fast.Reset()
		s.mu.Unlock()
	}
}

// Len returns the total number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		s := &t.shards[i]
		s.mu.Lock()
		n += s.events.Len() + s.fast.Len()
		s.mu.Unlock()
	}
	return n
}

// SpanEvent is the resolved, read-back view of one recorded event —
// interned descriptors are expanded back into category/name/args. This is
// the join surface for in-process consumers (energy attribution) that need
// the recorded spans without going through JSON export.
type SpanEvent struct {
	// Track is the rank track the event was recorded on, GlobalTrack for
	// the whole-run track.
	Track    int
	Category string
	Name     string
	StartS   float64
	DurS     float64
	// Instant marks zero-duration events ('i' phase).
	Instant bool
	Args    []Attr
}

// EndS returns the span's end time.
func (e SpanEvent) EndS() float64 { return e.StartS + e.DurS }

// Arg returns the named argument's numeric value (ok=false when absent).
func (e SpanEvent) Arg(key string) (float64, bool) {
	for _, a := range e.Args {
		if a.Key == key {
			return a.Float64(), true
		}
	}
	return 0, false
}

// Spans snapshots all recorded complete and instant events (counter and
// metadata records are skipped) across every track, resolving interned
// descriptors. Events within one track appear in recording order; tracks
// are concatenated rank 0..N then the global track. Safe to call while
// recording continues: the read-back holds every shard lock for its
// duration, counts first, and then allocates twice — the result at its
// final length and one slab all Args are carved from (each capped at
// its own length, so appending to one span's Args never reaches the next).
// A consumer that only folds the spans into something smaller should use
// VisitSpans, which builds neither.
func (t *Tracer) Spans() []SpanEvent {
	if t == nil {
		return nil
	}
	descs := t.descriptors()
	for i := range t.shards {
		t.shards[i].mu.Lock()
	}
	defer func() {
		for i := range t.shards {
			t.shards[i].mu.Unlock()
		}
	}()

	nspans, nargs := 0, 0
	for tid := range t.shards {
		s := &t.shards[tid]
		s.events.Runs(func(run []event) {
			for i := range run {
				if e := &run[i]; readBack(e.ph) {
					nspans++
					nargs += int(e.nattr) + len(e.extra)
				}
			}
		})
		s.fast.Runs(func(run []fastEvent) {
			for i := range run {
				if fe := &run[i]; int(fe.ref) < len(descs) && readBack(fe.ph) {
					nspans++
					nargs += int(descs[fe.ref].nkeys)
				}
			}
		})
	}
	if nspans == 0 {
		return nil
	}
	out := make([]SpanEvent, 0, nspans)
	slab := make([]Attr, 0, nargs)
	for tid := range t.shards {
		track, s := t.track(tid), &t.shards[tid]
		s.events.Runs(func(run []event) {
			for i := range run {
				if e := &run[i]; readBack(e.ph) {
					from := len(slab)
					slab = e.appendArgs(slab)
					out = append(out, e.span(track, carve(slab, from)))
				}
			}
		})
		s.fast.Runs(func(run []fastEvent) {
			for i := range run {
				if fe := &run[i]; int(fe.ref) < len(descs) && readBack(fe.ph) {
					from, d := len(slab), &descs[fe.ref]
					slab = fe.appendArgs(slab, d)
					out = append(out, fe.span(track, d, carve(slab, from)))
				}
			}
		})
	}
	return out
}

// NoRef is the SpanRef VisitSpans reports for an event recorded by name
// (Complete, Instant) rather than through an interned identity.
const NoRef = ^SpanRef(0)

// VisitSpans calls visit once for every event Spans would return, in
// Spans' order, without materialising them: ev and its Args are reused
// from one call to the next and are valid only during the call. ref is the
// event's interned identity — all events sharing one have the same
// category, name and argument keys, so a consumer can resolve those once
// per identity instead of once per event — or NoRef. Each track is visited
// under its shard's lock (safe while ranks still record), so visit must not
// call back into the tracer.
func (t *Tracer) VisitSpans(visit func(ref SpanRef, ev *SpanEvent)) {
	if t == nil {
		return
	}
	descs := t.descriptors()
	view := newSpanView()
	for tid := range t.shards {
		s := &t.shards[tid]
		s.mu.Lock()
		s.visit(t.track(tid), descs, view, visit)
		s.mu.Unlock()
	}
}

// spanView is the one SpanEvent a visit hands out again and again, and the
// backing of its Args (in one allocation, unless an event has more
// attributes than anything in the repository records).
type spanView struct {
	ev     SpanEvent
	args   []Attr
	inline [4 * inlineAttrs]Attr
}

func newSpanView() *spanView {
	v := &spanView{}
	v.args = v.inline[:0]
	return v
}

// descriptors returns the interned identities. Descriptors are immutable
// once appended, so the slice header taken under descMu stays valid while
// Intern grows the table behind it.
func (t *Tracer) descriptors() []spanDesc {
	t.descMu.Lock()
	defer t.descMu.Unlock()
	return t.descs
}

// track is the track number of shard tid: its rank, or GlobalTrack for
// the last.
func (t *Tracer) track(tid int) int {
	if tid == len(t.shards)-1 {
		return GlobalTrack
	}
	return tid
}

// visit expands the shard's complete and instant events one at a time into
// v and hands each to fn: generic events first, then interned ones, each
// kind in recording order. Caller holds s.mu.
func (s *shard) visit(track int, descs []spanDesc, v *spanView, fn func(SpanRef, *SpanEvent)) {
	s.events.Runs(func(run []event) {
		for i := range run {
			if e := &run[i]; readBack(e.ph) {
				v.args = e.appendArgs(v.args[:0])
				v.ev = e.span(track, v.args)
				fn(NoRef, &v.ev)
			}
		}
	})
	s.fast.Runs(func(run []fastEvent) {
		for i := range run {
			if fe := &run[i]; int(fe.ref) < len(descs) && readBack(fe.ph) {
				d := &descs[fe.ref]
				v.args = fe.appendArgs(v.args[:0], d)
				v.ev = fe.span(track, d, v.args)
				fn(fe.ref, &v.ev)
			}
		}
	})
}

// appendArgs appends the event's attributes to dst.
func (e *event) appendArgs(dst []Attr) []Attr {
	return append(append(dst, e.attrs[:e.nattr]...), e.extra...)
}

// span is the event's read-back view on track, with args as its Args.
func (e *event) span(track int, args []Attr) SpanEvent {
	return SpanEvent{Track: track, Category: e.cat, Name: e.name,
		StartS: e.startS, DurS: e.durS, Instant: e.ph == phaseInstant, Args: args}
}

// appendArgs appends the event's values to dst under its identity's keys.
func (fe *fastEvent) appendArgs(dst []Attr, d *spanDesc) []Attr {
	if d.nkeys > 0 {
		dst = append(dst, Float(d.keys[0], fe.v0))
	}
	if d.nkeys > 1 {
		dst = append(dst, Float(d.keys[1], fe.v1))
	}
	return dst
}

// span is the event's read-back view on track under identity d, with args
// as its Args.
func (fe *fastEvent) span(track int, d *spanDesc, args []Attr) SpanEvent {
	return SpanEvent{Track: track, Category: d.cat, Name: d.name,
		StartS: fe.startS, DurS: fe.durS, Instant: fe.ph == phaseInstant, Args: args}
}

// readBack reports whether events of phase ph are part of Spans.
func readBack(ph byte) bool { return ph == phaseComplete || ph == phaseInstant }

// carve returns slab[from:] with its capacity cut to its length, nil when
// empty.
func carve(slab []Attr, from int) []Attr {
	if from == len(slab) {
		return nil
	}
	return slab[from:len(slab):len(slab)]
}

// WriteFile writes the Chrome trace JSON to path, atomically: a crash or
// kill mid-write never leaves a truncated trace behind.
func (t *Tracer) WriteFile(path string) error {
	if err := atomicio.WriteFile(path, t.WriteJSON); err != nil {
		return fmt.Errorf("telemetry: write trace: %w", err)
	}
	return nil
}
