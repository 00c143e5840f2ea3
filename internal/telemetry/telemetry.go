// Package telemetry is the repository's span tracer: nestable named spans
// recorded into per-rank buffers with Chrome trace_event JSON export.
//
// The design follows the paper's §III-B non-perturbation requirement: every
// entry point is safe on a nil receiver and returns immediately, so code can
// be instrumented unconditionally — a run without a tracer pays only a nil
// check. Every event — span, instant, counter sample, track name — is one
// 40-byte record: a start, a duration, two float values and an interned
// identity, appended to its rank's buffer. The identity (category, name, up
// to two float argument keys and at most one constant string argument) is
// interned once (Intern, InternWith) and recorded through the SpanRef it
// returns (CompleteRef, InstantRef, CounterRef), so recording moves no
// strings; RecordSpan interns by name on first use. All serialization work
// happens at export time.
//
// What was deferred is paid once, and flatly, when the run is over: the
// export (WriteJSON) appends every event in a fixed field order — no
// container per span, an identity's strings quoted once. The in-process
// read-back is a read of one track's complete records where they lie, from
// a cursor on (ReadRecords), which internal/attrib's join makes while the
// run runs, or, for callers that want the slice, Spans, two allocations
// whatever the span count. A tracer belongs to the goroutine that drives
// its run, so none of this takes a lock: the join reads between the run's
// steps, and the export once the run has returned. A shard keeps its
// records in fixed blocks (internal/blocks): recording never copies what
// is already recorded.
package telemetry

import (
	"fmt"

	"sphenergy/internal/atomicio"
	"sphenergy/internal/blocks"
)

// attrKind tags the payload of an Attr.
type attrKind uint8

const (
	attrString attrKind = iota
	attrFloat
)

// Attr is one key/value argument of a read-back span (SpanEvent.Args):
// one of the identity's float values or its constant string. The value
// lives inline, not boxed in an interface.
type Attr struct {
	Key  string
	s    string
	f    float64
	kind attrKind
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, s: value, kind: attrString} }

// Float builds a float attribute.
func Float(key string, value float64) Attr { return Attr{Key: key, f: value, kind: attrFloat} }

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

// shard is one rank's event buffer, in recording order.
type shard struct {
	fast blocks.Seq[fastEvent]
}

// fastEvent is one recorded event: a 40-byte POD record whose identity
// (category, name, argument keys, constant string) lives in the tracer's
// descriptor table. Times are virtual simulation seconds; export converts
// to the microseconds Chrome expects.
type fastEvent struct {
	startS float64
	durS   float64
	v0, v1 float64
	ref    SpanRef
	ph     byte
}

// addFast appends one event in place.
func (s *shard) addFast(ph byte, ref SpanRef, startS, durS, v0, v1 float64) {
	fe, _ := s.fast.Push()
	*fe = fastEvent{startS: startS, durS: durS, v0: v0, v1: v1, ref: ref, ph: ph}
}

// SpanRef identifies a span descriptor interned with Tracer.Intern. Refs
// are only meaningful on the tracer that issued them.
type SpanRef uint32

// spanDesc is an interned identity: its category, name, up to two
// float-valued argument keys whose values each event supplies, and, when
// labeled, one constant string argument label=value. It is comparable, and
// keys the tracer's index.
type spanDesc struct {
	cat, name    string
	keys         [2]string
	nkeys        uint8
	labeled      bool
	label, value string
}

// nargs is the number of arguments an event of identity d reads back with.
func (d *spanDesc) nargs() int {
	if d.labeled {
		return int(d.nkeys) + 1
	}
	return int(d.nkeys)
}

// spanKey indexes the RecordSpan descriptor cache without allocating.
type spanKey struct{ cat, name string }

// Tracer records spans and events for one run. A nil *Tracer is a valid
// no-op sink: all methods return immediately. Spans recorded on the same
// rank track nest by containment when rendered in Perfetto or
// chrome://tracing. A tracer belongs to the goroutine that drives its run
// and has no lock: everything it records is recorded from that goroutine,
// and it is read back and exported after the run.
type Tracer struct {
	shards []shard // one per rank, plus one global track at the end
	descs  []spanDesc
	index  map[spanDesc]SpanRef
	cache  map[spanKey]SpanRef // backs RecordSpan: a two-string key hashes faster than a spanDesc
}

// NewTracer creates a tracer with one track per rank plus the global track.
func NewTracer(ranks int) *Tracer {
	if ranks < 0 {
		ranks = 0
	}
	return &Tracer{shards: make([]shard, ranks+1), index: map[spanDesc]SpanRef{}, cache: map[spanKey]SpanRef{}}
}

// Intern registers a span identity — category, name, and up to two
// attribute keys whose values are supplied per event (surplus keys are
// dropped) — returning a ref for CompleteRef, InstantRef and CounterRef.
// Interning the identity once moves all string handling off the recording
// path; callers typically intern at setup or memoize per call site.
// Interning the same identity twice returns the same ref. On a nil tracer
// Intern returns 0; the ref is inert.
func (t *Tracer) Intern(category, name string, keys ...string) SpanRef {
	if t == nil {
		return 0
	}
	return t.intern(newSpanDesc(category, name, keys))
}

// InternWith is Intern for an identity that also carries one constant
// string argument, label=value, in every event recorded under it (a clock
// change's cause, a track's name).
func (t *Tracer) InternWith(category, name, label, value string, keys ...string) SpanRef {
	if t == nil {
		return 0
	}
	d := newSpanDesc(category, name, keys)
	d.labeled, d.label, d.value = true, label, value
	return t.intern(d)
}

func newSpanDesc(category, name string, keys []string) spanDesc {
	d := spanDesc{cat: category, name: name}
	d.nkeys = uint8(copy(d.keys[:], keys))
	return d
}

// intern returns d's ref, issuing the next one on first sight.
func (t *Tracer) intern(d spanDesc) SpanRef {
	ref, ok := t.index[d]
	if !ok {
		ref = SpanRef(len(t.descs))
		t.descs = append(t.descs, d)
		t.index[d] = ref
	}
	return ref
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

// CounterRef records a counter sample of an interned identity at tsS: the
// identity's name is the counter, each of its keys one series (rendered as
// a stacked area in the trace viewer).
func (t *Tracer) CounterRef(rank int, ref SpanRef, tsS, v0, v1 float64) {
	if t == nil {
		return
	}
	t.shardFor(rank).addFast(phaseCounter, ref, tsS, 0, v0, v1)
}

// shardFor maps a rank (or GlobalTrack) to its buffer. Out-of-range ranks
// land on the global track rather than panicking.
func (t *Tracer) shardFor(rank int) *shard {
	if rank < 0 || rank >= len(t.shards)-1 {
		return &t.shards[len(t.shards)-1]
	}
	return &t.shards[rank]
}

// RecordSpan is the plain-span entry point for callers that hold no
// interned identity. Each (category, name) identity is interned on first
// use.
func (t *Tracer) RecordSpan(rank int, category, name string, startS, durS float64) {
	if t == nil {
		return
	}
	key := spanKey{cat: category, name: name}
	ref, ok := t.cache[key]
	if !ok {
		ref = t.Intern(category, name)
		t.cache[key] = ref
	}
	t.CompleteRef(rank, ref, startS, durS, 0, 0)
}

// SetTrackName labels a rank track ("rank 3", "sim") in the exported trace.
func (t *Tracer) SetTrackName(rank int, name string) {
	if t == nil {
		return
	}
	t.shardFor(rank).addFast(phaseMeta, t.InternWith("", "thread_name", "name", name), 0, 0, 0, 0)
}

// Reset drops all recorded events but keeps the shard buffers' capacity,
// so a long-lived process can export one run's trace and reuse the tracer
// for the next run without reallocating.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for i := range t.shards {
		t.shards[i].fast.Reset()
	}
}

// Len returns the total number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.shards {
		n += t.shards[i].fast.Len()
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
	// Args holds the identity's float arguments in key order, then its
	// constant string argument.
	Args []Attr
}

// Arg returns the named argument's numeric value (ok=false when absent).
func (e SpanEvent) Arg(key string) (float64, bool) {
	for _, a := range e.Args {
		if a.Key == key {
			return a.Float64(), true
		}
	}
	return 0, false
}

// Spans returns all recorded complete and instant events (counter and
// metadata records are skipped) across every track, resolving interned
// descriptors. Events within one track appear in recording order; tracks
// are concatenated rank 0..N then the global track. The read-back counts
// first, and then allocates twice — the result at its final length and one
// slab all Args are carved from (each capped at its own length, so
// appending to one span's Args never reaches the next).
// A consumer that only folds complete spans into something smaller should
// use ReadRecords, which builds neither.
func (t *Tracer) Spans() []SpanEvent {
	if t == nil {
		return nil
	}
	descs := t.descs
	nspans, nargs := 0, 0
	for tid := range t.shards {
		t.shards[tid].fast.Runs(func(run []fastEvent) {
			for i := range run {
				if fe := &run[i]; int(fe.ref) < len(descs) && readBack(fe.ph) {
					nspans++
					nargs += descs[fe.ref].nargs()
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
		track := t.track(tid)
		t.shards[tid].fast.Runs(func(run []fastEvent) {
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

// ReadRecords reads the complete events recorded on rank's track from its
// from-th event on, in recording order: it calls read with each one's
// interned identity, start, duration and two float values, read where they
// lie — it builds no SpanEvent — until read returns false, and returns the
// index of the event read returned false for, the track's length when it
// never did. A consumer that reads a track as it grows keeps that index as
// its cursor. Instants, counter samples and track names are passed over.
// All events sharing an identity have the same category, name and arguments
// but for the values (Identity, ArgSlot), so a consumer resolves those once
// per identity instead of once per event. read must not call back into the
// tracer. A rank without a track of its own (the global track's events
// are not a rank's) reads none.
func (t *Tracer) ReadRecords(rank, from int, read func(ref SpanRef, startS, durS, v0, v1 float64) bool) int {
	if t == nil || rank < 0 || rank >= len(t.shards)-1 {
		return from
	}
	fast, n := &t.shards[rank].fast, SpanRef(len(t.descs))
	for ; from < fast.Len(); from++ {
		if fe := fast.At(from); fe.ph == phaseComplete && fe.ref < n && !read(fe.ref, fe.startS, fe.durS, fe.v0, fe.v1) {
			return from
		}
	}
	return from
}

// Identity returns the category and name of the identity ref names, as its
// events read back (SpanEvent.Category, SpanEvent.Name). ref must be one
// the tracer issued, as every ref ReadRecords hands out is.
func (t *Tracer) Identity(ref SpanRef) (category, name string) {
	d := &t.descs[ref]
	return d.cat, d.name
}

// ArgSlot is where the events of one identity keep one argument.
type ArgSlot uint8

// The slots of an argument, as ArgSlot finds them.
const (
	ArgAbsent ArgSlot = iota // the identity has no argument of that key
	ArgV0                    // the event's first float value
	ArgV1                    // its second float value
	ArgLabel                 // the constant string argument: it reads 0
)

// ArgSlot returns where the events of identity ref (one the tracer issued)
// keep the argument key: the argument SpanEvent.Arg(key) would find, first
// match first, float keys in order and then the constant string's.
func (t *Tracer) ArgSlot(ref SpanRef, key string) ArgSlot {
	d := &t.descs[ref]
	switch {
	case d.nkeys > 0 && d.keys[0] == key:
		return ArgV0
	case d.nkeys > 1 && d.keys[1] == key:
		return ArgV1
	case d.labeled && d.label == key:
		return ArgLabel
	}
	return ArgAbsent
}

// Read returns the value an event with float values v0, v1 has in slot a:
// what SpanEvent.Arg returns for it, 0 when absent.
func (a ArgSlot) Read(v0, v1 float64) float64 {
	switch a {
	case ArgV0:
		return v0
	case ArgV1:
		return v1
	}
	return 0
}

// track is the track number of shard tid: its rank, or GlobalTrack for
// the last.
func (t *Tracer) track(tid int) int {
	if tid == len(t.shards)-1 {
		return GlobalTrack
	}
	return tid
}

// appendArgs appends the event's values to dst under its identity's keys,
// then the identity's constant string.
func (fe *fastEvent) appendArgs(dst []Attr, d *spanDesc) []Attr {
	if d.nkeys > 0 {
		dst = append(dst, Float(d.keys[0], fe.v0))
	}
	if d.nkeys > 1 {
		dst = append(dst, Float(d.keys[1], fe.v1))
	}
	if d.labeled {
		dst = append(dst, String(d.label, d.value))
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
