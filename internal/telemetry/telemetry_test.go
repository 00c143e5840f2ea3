package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"sphenergy/internal/blocks"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.RecordSpan(0, "function", "momentum", 0, 1)
	ref := tr.InternWith("freq", "clock-change", "cause", "x", "mhz")
	tr.InstantRef(0, ref, 0.5, 1005, 0)
	tr.CounterRef(0, tr.Intern("", "gpu", "power_w"), 0.5, 250, 0)
	tr.SetTrackName(0, "rank 0")
	if tr.Len() != 0 {
		t.Fatalf("nil tracer Len = %d", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatalf("nil tracer WriteJSON: %v", err)
	}
	var out map[string]any
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("nil tracer emits invalid JSON: %v", err)
	}
}

func TestTracerChromeJSON(t *testing.T) {
	tr := NewTracer(2)
	tr.SetTrackName(0, "rank 0")
	tr.SetTrackName(GlobalTrack, "sim")
	tr.CompleteRef(0, tr.Intern("function", "momentumEnergy", "clock_mhz"), 1.0, 0.5, 1410, 0)
	tr.RecordSpan(1, "kernel", "iadKernel", 1.0, 0.25)
	tr.InstantRef(0, tr.InternWith("freq", "freq-change", "cause", "strategy", "mhz"), 1.2, 1005, 0)
	tr.CounterRef(0, tr.Intern("", "gpu", "power_w"), 1.3, 300, 0)
	tr.CompleteRef(GlobalTrack, tr.Intern("step", "step 0"), 0, 2, 0, 0)

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(doc.TraceEvents) != 7 {
		t.Fatalf("got %d events, want 7", len(doc.TraceEvents))
	}
	byName := map[string]map[string]any{}
	for _, e := range doc.TraceEvents {
		byName[e["name"].(string)] = e
	}
	span := byName["momentumEnergy"]
	if span["ph"] != "X" || span["ts"].(float64) != 1e6 || span["dur"].(float64) != 0.5e6 {
		t.Errorf("span rendered wrong: %v", span)
	}
	if span["cat"] != "function" {
		t.Errorf("span category = %v", span["cat"])
	}
	args := span["args"].(map[string]any)
	if args["clock_mhz"].(float64) != 1410 {
		t.Errorf("span args = %v", args)
	}
	if fc := byName["freq-change"]; fc["ph"] != "i" || !reflect.DeepEqual(fc["args"], map[string]any{"cause": "strategy", "mhz": 1005.0}) {
		t.Errorf("instant rendered wrong: %v", fc)
	}
	if tn := byName["thread_name"]; tn["ph"] != "M" || !reflect.DeepEqual(tn["args"], map[string]any{"name": "sim"}) {
		t.Errorf("track name rendered wrong: %v", tn)
	}
	if byName["gpu"]["ph"] != "C" {
		t.Errorf("counter phase = %v", byName["gpu"]["ph"])
	}
	// Global track sits one past the last rank.
	if tid := byName["step 0"]["tid"].(float64); tid != 2 {
		t.Errorf("global track tid = %v, want 2", tid)
	}
	if byName["iadKernel"]["tid"].(float64) != 1 {
		t.Errorf("rank 1 tid = %v", byName["iadKernel"]["tid"])
	}
}

func TestTracerOutOfRangeRankGoesToGlobal(t *testing.T) {
	tr := NewTracer(1)
	tr.RecordSpan(99, "x", "overflow", 0, 1)
	tr.RecordSpan(-5, "x", "negative", 0, 1)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"tid":1`) {
		t.Error("out-of-range events not on global track")
	}
}

func TestRecordSpanMatchesComplete(t *testing.T) {
	tr := NewTracer(1)
	tr.RecordSpan(0, "mpi", "barrier-wait", 2.0, 0.1)
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "barrier-wait") {
		t.Error("RecordSpan event missing from export")
	}
}

func TestInternedSpans(t *testing.T) {
	tr := NewTracer(2)
	kernel := tr.Intern("kernel", "densityKernel", "clock_mhz", "energy_j")
	if again := tr.Intern("kernel", "densityKernel", "clock_mhz", "energy_j"); again != kernel {
		t.Errorf("re-interning the same identity gave %d, want %d", again, kernel)
	}
	bare := tr.Intern("mpi", "barrier-wait")
	if bare == kernel {
		t.Error("distinct identities share a ref")
	}
	// A label is part of the identity: same label, same ref; another label,
	// or none, another ref.
	labeled := tr.InternWith("mpi", "barrier-wait", "cause", "a")
	for _, other := range []SpanRef{bare, tr.InternWith("mpi", "barrier-wait", "cause", "b"), tr.InternWith("mpi", "barrier-wait", "reason", "a")} {
		if other == labeled {
			t.Errorf("labeled identity shares ref %d with another", labeled)
		}
	}
	if again := tr.InternWith("mpi", "barrier-wait", "cause", "a"); again != labeled {
		t.Errorf("re-interning a labeled identity gave %d, want %d", again, labeled)
	}
	tr.CompleteRef(1, kernel, 1.5, 0.25, 1005, 3.5)
	tr.InstantRef(0, bare, 2.0, 0, 0)
	if tr.Len() != 2 {
		t.Errorf("Len = %d, want 2", tr.Len())
	}

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string             `json:"name"`
			Cat  string             `json:"cat"`
			Ph   string             `json:"ph"`
			TID  int                `json:"tid"`
			Ts   float64            `json:"ts"`
			Dur  float64            `json:"dur"`
			Args map[string]float64 `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	byName := map[string]int{}
	for i, e := range doc.TraceEvents {
		byName[e.Name] = i
	}
	k := doc.TraceEvents[byName["densityKernel"]]
	if k.Cat != "kernel" || k.Ph != "X" || k.TID != 1 {
		t.Errorf("kernel event rendered as %+v", k)
	}
	if k.Ts != 1.5e6 || k.Dur != 0.25e6 {
		t.Errorf("kernel times ts=%v dur=%v, want µs conversion", k.Ts, k.Dur)
	}
	if k.Args["clock_mhz"] != 1005 || k.Args["energy_j"] != 3.5 {
		t.Errorf("kernel args = %v", k.Args)
	}
	w := doc.TraceEvents[byName["barrier-wait"]]
	if w.Ph != "i" || w.TID != 0 || len(w.Args) != 0 {
		t.Errorf("instant event rendered as %+v", w)
	}

	// An export takes nothing away: the refs stay usable and recording goes
	// on after it.
	n := tr.Len()
	tr.CompleteRef(0, kernel, 9, 1, 1410, 7)
	if tr.Len() != n+1 {
		t.Errorf("Len after one more event = %d, want %d", tr.Len(), n+1)
	}
	buf.Reset()
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"args":{"clock_mhz":1410,"energy_j":7},"cat":"kernel","dur":1000000,"name":"densityKernel"`) {
		t.Error("an event recorded after an export is missing from the next")
	}
}

func TestInternNilTracer(t *testing.T) {
	var tr *Tracer
	ref := tr.Intern("a", "b", "k")
	tr.CompleteRef(0, ref, 0, 1, 2, 3) // must not panic
	tr.InstantRef(0, ref, 0, 0, 0)
	tr.CounterRef(0, tr.InternWith("a", "b", "c", "d"), 0, 0, 0)
}

func TestSpansReadBack(t *testing.T) {
	tr := NewTracer(2)
	kernel := tr.Intern("kernel", "densityKernel", "clock_mhz", "energy_j")
	tr.CompleteRef(1, kernel, 1.5, 0.25, 1005, 3.5)
	tr.CompleteRef(0, tr.Intern("function", "Domain::sync", "gpu_j", "comm_s"), 0.5, 0.4, 12, 0.1)
	tr.InstantRef(0, tr.Intern("comm", "barrier-wait"), 2.0, 0, 0)
	tr.InstantRef(0, tr.InternWith("freq", "freq-change", "cause", "strategy", "mhz"), 2.5, 1005, 0)
	tr.CompleteRef(GlobalTrack, tr.Intern("step", "step 0"), 0, 3, 0, 0)
	tr.CounterRef(0, tr.Intern("", "clock", "mhz"), 1.0, 1410, 0) // must be skipped
	tr.SetTrackName(0, "rank 0")                                  // must be skipped

	spans := tr.Spans()
	if len(spans) != 5 {
		t.Fatalf("spans = %d, want 5 (counter/meta skipped)", len(spans))
	}
	byName := map[string]SpanEvent{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	k := byName["densityKernel"]
	if k.Track != 1 || k.Category != "kernel" || k.StartS != 1.5 || k.DurS != 0.25 {
		t.Errorf("kernel span = %+v", k)
	}
	if v, ok := k.Arg("energy_j"); !ok || v != 3.5 {
		t.Errorf("kernel energy_j = %v (ok=%v)", v, ok)
	}
	if v, ok := k.Arg("clock_mhz"); !ok || v != 1005 {
		t.Errorf("kernel clock_mhz = %v (ok=%v)", v, ok)
	}
	fn := byName["Domain::sync"]
	if fn.Track != 0 || len(fn.Args) != 2 {
		t.Errorf("function span = %+v", fn)
	}
	if end := fn.StartS + fn.DurS; end != 0.9 {
		t.Errorf("span ends at %v, want 0.9", end)
	}
	if !byName["barrier-wait"].Instant {
		t.Error("instant flag lost")
	}
	// A label reads back after the float arguments, as a string.
	if fc := byName["freq-change"]; !reflect.DeepEqual(fc.Args, []Attr{Float("mhz", 1005), String("cause", "strategy")}) {
		t.Errorf("freq-change args = %+v", fc.Args)
	}
	if byName["step 0"].Track != GlobalTrack {
		t.Errorf("global span track = %d", byName["step 0"].Track)
	}

	var nilT *Tracer
	if nilT.Spans() != nil {
		t.Error("nil tracer Spans should be nil")
	}
}

// TestReadRecordsMatchesSpans reads a tracer whose shards span several
// blocks, with interned, labeled and by-name events, identities with a
// repeated key and with a label key that is also a float key's, instants,
// the global track and the records Spans skips, each rank track from a
// cursor that stops every few records and resumes where it stopped: the
// reads see exactly Spans' complete rank-track events in Spans' order, one
// identity per ref, and each argument Arg finds is in the slot ArgSlot
// names.
func TestReadRecordsMatchesSpans(t *testing.T) {
	tr := NewTracer(3)
	refs := []SpanRef{
		tr.Intern("kernel", "density", "clock_mhz", "energy_j"),
		tr.Intern("function", "Domain::sync", "gpu_j"),
		tr.Intern("mpi", "barrier-wait"),
		tr.Intern("kernel", "twice", "energy_j", "energy_j"),
		tr.InternWith("kernel", "labeled", "clock_mhz", "boost", "energy_j", "clock_mhz"),
		tr.InternWith("function", "label only", "gpu_j", "x"),
	}
	for i := 0; i < 2*blocks.Len+77; i++ {
		rank := i % 4 // 3 lands on the global track
		tr.CompleteRef(rank, refs[i%len(refs)], float64(i), 0.5, float64(i), 2*float64(i))
		switch i % 5 {
		case 0:
			tr.RecordSpan(rank, "step", "by name", float64(i), 1)
		case 1:
			cause := []string{"strategy", "governor"}[i%2]
			tr.InstantRef(rank, tr.InternWith("freq", "freq-change", "cause", cause, "mhz"), float64(i), 1005, 0)
		case 2:
			tr.InstantRef(rank, refs[2], float64(i), 0, 0)
		case 3:
			tr.CounterRef(rank, tr.Intern("", "clock", "mhz"), float64(i), 1410, 0)
		}
	}
	tr.SetTrackName(0, "rank 0")

	var want []SpanEvent
	for _, ev := range tr.Spans() {
		if ev.Track >= 0 && !ev.Instant {
			want = append(want, ev)
		}
	}
	type record struct {
		rank                 int
		ref                  SpanRef
		startS, durS, v0, v1 float64
	}
	var got []record
	for rank := 0; rank < 3; rank++ {
		if b := tr.shards[rank].recs.Blocks(); b < 2 {
			t.Fatalf("rank %d's records lie in %d block, want several", rank, b)
		}
		var cursor Cursor
		for stops := 0; ; stops++ {
			budget := stops % 7 // 0 reads nothing and must not move the cursor
			next := tr.ReadRecords(rank, cursor, func(ref SpanRef, startS, durS, v0, v1 float64) bool {
				if budget == 0 {
					return false
				}
				budget--
				got = append(got, record{rank, ref, startS, durS, v0, v1})
				return true
			})
			if stops > 4*blocks.Len {
				t.Fatalf("rank %d: still reading after %d stops", rank, stops)
			}
			if budget > 0 {
				break // read to the end of the track
			}
			cursor = next
		}
	}
	if len(got) != len(want) {
		t.Fatalf("read %d records, Spans has %d complete rank-track events", len(got), len(want))
	}
	identity := map[SpanRef]string{}
	for i, w := range want {
		g := got[i]
		if cat, name := tr.Identity(g.ref); g.rank != w.Track || cat != w.Category || name != w.Name ||
			math.Float64bits(g.startS) != math.Float64bits(w.StartS) || math.Float64bits(g.durS) != math.Float64bits(w.DurS) {
			t.Fatalf("record %d: read rank %d, %s/%s at %v for %v; Spans has %+v", i, g.rank, cat, name, g.startS, g.durS, w)
		}
		for _, key := range []string{"clock_mhz", "energy_j", "gpu_j", "boost", "x", "absent"} {
			v, ok := w.Arg(key)
			slot := tr.ArgSlot(g.ref, key)
			if ok != (slot != ArgAbsent) || math.Float64bits(v) != math.Float64bits(slot.Read(g.v0, g.v1)) {
				t.Fatalf("record %d (%s): Arg(%q) = %v, %v; slot %d reads %v", i, w.Name, key, v, ok, slot, slot.Read(g.v0, g.v1))
			}
		}
		id := w.Category + "/" + w.Name
		if a := w.Args; len(a) > 0 && a[len(a)-1].kind == attrString {
			id += "/" + a[len(a)-1].s
		}
		switch {
		case identity[g.ref] == "":
			identity[g.ref] = id
		case identity[g.ref] != id:
			t.Fatalf("ref %d names both %s and %s", g.ref, identity[g.ref], id)
		}
	}
	// The six interned and the by-name span.
	if len(identity) != len(refs)+1 {
		t.Errorf("saw %d identities, recorded %d", len(identity), len(refs)+1)
	}
	k := 0
	mid := tr.ReadRecords(0, Cursor{}, func(SpanRef, float64, float64, float64, float64) bool {
		k++
		return k < 5
	})
	var nilT *Tracer
	for _, c := range []struct {
		tr   *Tracer
		rank int
	}{{nilT, 0}, {tr, GlobalTrack}, {tr, 3}} {
		if next := c.tr.ReadRecords(c.rank, mid, func(SpanRef, float64, float64, float64, float64) bool {
			t.Errorf("track %d read a record", c.rank)
			return true
		}); next != mid {
			t.Errorf("track %d: cursor moved from %+v to %+v", c.rank, mid, next)
		}
	}
}

// TestTrackExportsInRecordingOrder records every phase, labeled and not,
// interleaved on one track: the export and the read-back keep the order
// they were recorded in.
func TestTrackExportsInRecordingOrder(t *testing.T) {
	tr := NewTracer(1)
	fn := tr.Intern("function", "momentum", "gpu_j", "comm_s")
	clock := tr.Intern("", "gpu_clock_mhz", "mhz")
	var want []string
	for i := 0; i < 2*blocks.Len; i++ {
		ts := float64(i)
		switch i % 5 {
		case 0:
			tr.RecordSpan(0, "mpi", "wait", ts, 0.5)
			want = append(want, "wait")
		case 1:
			tr.CompleteRef(0, fn, ts, 0.5, 1, 2)
			want = append(want, "momentum")
		case 2:
			tr.InstantRef(0, tr.InternWith("freq", "freq-change", "cause", "strategy", "mhz"), ts, 1005, 0)
			want = append(want, "freq-change")
		case 3:
			tr.CounterRef(0, clock, ts, 1410, 0)
			want = append(want, "gpu_clock_mhz")
		case 4:
			tr.CompleteRef(0, tr.Intern("step", "step "+strconv.Itoa(i), "energy_j"), ts, 1, 3, 0)
			want = append(want, "step "+strconv.Itoa(i))
		}
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range doc.TraceEvents {
		got = append(got, e.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exported order:\n got %v\nwant %v", got, want)
	}
	got = got[:0]
	for _, sp := range tr.Spans() {
		got = append(got, sp.Name)
	}
	var spans []string
	for _, n := range want {
		if n != "gpu_clock_mhz" {
			spans = append(spans, n)
		}
	}
	if !reflect.DeepEqual(got, spans) {
		t.Errorf("read-back order:\n got %v\nwant %v", got, spans)
	}
}

func TestAttrValue(t *testing.T) {
	if v := Float("k", 2.5).Float64(); v != 2.5 {
		t.Errorf("float Float64 = %v", v)
	}
	if v := String("k", "x").Float64(); v != 0 {
		t.Errorf("string Float64 = %v, want 0", v)
	}
}
