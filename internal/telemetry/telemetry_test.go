package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"sphenergy/internal/blocks"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.Complete(0, "function", "momentum", 0, 1)
	tr.Instant(0, "freq", "clock-change", 0.5)
	tr.Counter(0, "gpu", 0.5, Float("power_w", 250))
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
	tr.Complete(0, "function", "momentumEnergy", 1.0, 0.5, Int("clock_mhz", 1410))
	tr.Complete(1, "kernel", "iadKernel", 1.0, 0.25)
	tr.Instant(0, "freq", "freq-change", 1.2, Int("mhz", 1005))
	tr.Counter(0, "gpu", 1.3, Float("power_w", 300))
	tr.Complete(GlobalTrack, "step", "step 0", 0, 2)

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
	if byName["freq-change"]["ph"] != "i" {
		t.Errorf("instant phase = %v", byName["freq-change"]["ph"])
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
	tr.Complete(99, "x", "overflow", 0, 1)
	tr.Complete(-5, "x", "negative", 0, 1)
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

	// Reset drops events but interned identities survive for the next run.
	tr.Reset()
	if tr.Len() != 0 {
		t.Errorf("Len after Reset = %d", tr.Len())
	}
	tr.CompleteRef(0, kernel, 9, 1, 1410, 7)
	buf.Reset()
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "densityKernel") {
		t.Error("ref unusable after Reset")
	}
}

func TestInternNilTracer(t *testing.T) {
	var tr *Tracer
	ref := tr.Intern("a", "b", "k")
	tr.CompleteRef(0, ref, 0, 1, 2, 3) // must not panic
	tr.InstantRef(0, ref, 0, 0, 0)
}

func TestSpansReadBack(t *testing.T) {
	tr := NewTracer(2)
	kernel := tr.Intern("kernel", "densityKernel", "clock_mhz", "energy_j")
	tr.CompleteRef(1, kernel, 1.5, 0.25, 1005, 3.5)
	tr.Complete(0, "function", "Domain::sync", 0.5, 0.4,
		Float("gpu_j", 12), Float("comm_s", 0.1))
	tr.Instant(0, "comm", "barrier-wait", 2.0)
	tr.Complete(GlobalTrack, "step", "step 0", 0, 3)
	tr.Counter(0, "clock", 1.0, Float("mhz", 1410)) // must be skipped
	tr.SetTrackName(0, "rank 0")                    // must be skipped

	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("spans = %d, want 4 (counter/meta skipped)", len(spans))
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
	if fn.EndS() != 0.9 {
		t.Errorf("EndS = %v, want 0.9", fn.EndS())
	}
	if !byName["barrier-wait"].Instant {
		t.Error("instant flag lost")
	}
	if byName["step 0"].Track != GlobalTrack {
		t.Errorf("global span track = %d", byName["step 0"].Track)
	}

	var nilT *Tracer
	if nilT.Spans() != nil {
		t.Error("nil tracer Spans should be nil")
	}
}

// TestVisitSpansMatchesSpans walks a tracer whose shards span several
// blocks, with interned and by-name events, instants, many-argument events
// and the records Spans skips: the visitor sees exactly Spans' events in
// Spans' order, reports each interned event's ref (one per identity) and
// NoRef for the rest, and reuses its view between calls.
func TestVisitSpansMatchesSpans(t *testing.T) {
	tr := NewTracer(3)
	refs := []SpanRef{
		tr.Intern("kernel", "density", "clock_mhz", "energy_j"),
		tr.Intern("function", "Domain::sync", "gpu_j"),
		tr.Intern("mpi", "barrier-wait"),
	}
	for i := 0; i < 2*blocks.Len+77; i++ {
		rank := i % 4 // 3 lands on the global track
		tr.CompleteRef(rank, refs[i%3], float64(i), 0.5, float64(i), 2*float64(i))
		switch i % 5 {
		case 0:
			tr.Complete(rank, "step", "by name", float64(i), 1, Int("a", i), Float("b", 0.5), String("c", "x"), Int("d", 4))
		case 1:
			tr.Instant(rank, "freq", "freq-change", float64(i), Int("mhz", 1005))
		case 2:
			tr.InstantRef(rank, refs[2], float64(i), 0, 0)
		case 3:
			tr.Counter(rank, "clock", float64(i), Float("mhz", 1410))
		}
	}
	tr.SetTrackName(0, "rank 0")

	want := tr.Spans()
	var got []SpanEvent
	var gotRefs []SpanRef
	var view *SpanEvent
	tr.VisitSpans(func(ref SpanRef, ev *SpanEvent) {
		if view == nil {
			view = ev
		} else if ev != view {
			t.Fatal("the visitor was handed a second SpanEvent; it reuses one")
		}
		e := *ev
		e.Args = append([]Attr(nil), ev.Args...)
		got, gotRefs = append(got, e), append(gotRefs, ref)
	})
	if len(got) != len(want) {
		t.Fatalf("visited %d events, Spans returns %d", len(got), len(want))
	}
	identity := map[SpanRef]string{}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("event %d: visited %+v, Spans has %+v", i, got[i], want[i])
		}
		ref, id := gotRefs[i], want[i].Category+"/"+want[i].Name
		switch {
		case want[i].Name == "by name" || want[i].Name == "freq-change":
			if ref != NoRef {
				t.Fatalf("event %d (%s) recorded by name carries ref %d", i, id, ref)
			}
		case ref == NoRef:
			t.Fatalf("event %d (%s) is interned but carries NoRef", i, id)
		case identity[ref] == "":
			identity[ref] = id
		case identity[ref] != id:
			t.Fatalf("ref %d names both %s and %s", ref, identity[ref], id)
		}
	}
	if len(identity) != len(refs) {
		t.Errorf("saw %d interned identities, recorded %d", len(identity), len(refs))
	}
	var nilT *Tracer
	nilT.VisitSpans(func(SpanRef, *SpanEvent) { t.Error("a nil tracer visited an event") })
}

func TestAttrValue(t *testing.T) {
	if v := String("k", "x").Value(); v != "x" {
		t.Errorf("string Value = %v", v)
	}
	if v := Int("k", 3).Value(); v != int64(3) {
		t.Errorf("int Value = %v", v)
	}
	if v := Float("k", 2.5).Float64(); v != 2.5 {
		t.Errorf("float Float64 = %v", v)
	}
	if v := String("k", "x").Float64(); v != 0 {
		t.Errorf("string Float64 = %v, want 0", v)
	}
}
