package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSelfTimeNestedAndSiblingChildren(t *testing.T) {
	spans := []span{
		{Name: "step", StartNs: 0, EndNs: 100, Parent: -1},       // 0
		{Name: "a", StartNs: 10, EndNs: 30, Parent: 0},           // 1: sibling
		{Name: "b", StartNs: 40, EndNs: 80, Parent: 0},           // 2: sibling with a child
		{Name: "b.inner", StartNs: 50, EndNs: 60, Parent: 2},     // 3: nested, not counted against 0
		{Name: "overlap", StartNs: 70, EndNs: 90, Parent: 0},     // 4: overlaps b by 10
		{Name: "spill", StartNs: 95, EndNs: 120, Parent: 0},      // 5: clipped to the parent's end
		{Name: "early", StartNs: -5, EndNs: 5, Parent: 0},        // 6: clipped to the parent's start
		{Name: "other-root", StartNs: 0, EndNs: 50, Parent: -1},  // 7: childless
		{Name: "late-parent", StartNs: 20, EndNs: 25, Parent: 1}, // 8: child listed after its sibling's
	}
	self := selfNs(spans)
	// step: 100 - (early 5 + a 20 + b 40 + overlap's new part 10 + spill 5) = 20
	want := []int64{20, 15, 30, 10, 20, 25, 10, 50, 5}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, self[i], w)
		}
	}
}

func TestRecorderParentsAndOps(t *testing.T) {
	r := newRecorder(8)
	r.setOp(3)
	step := r.begin("step", "sph")
	pass := r.add("xmass", "sph", 0)
	inner := r.begin("gravity.build", "gravity")
	r.end(inner)
	r.end(step)
	root := r.begin("next", "sph")
	r.end(root)
	if err := r.timed("t", "x", func() error { return os.ErrNotExist }); err != os.ErrNotExist {
		t.Errorf("timed dropped the error: %v", err)
	}

	for i, want := range []int{-1, step, step, -1, -1} {
		if r.spans[i].Parent != want {
			t.Errorf("span %d (%s) parent = %d, want %d", i, r.spans[i].Name, r.spans[i].Parent, want)
		}
	}
	for _, s := range r.spans {
		if s.Op != 3 || s.EndNs < s.StartNs {
			t.Errorf("span %+v: wrong op or negative duration", s)
		}
	}
	if r.spans[pass].Layer != "sph" || len(r.open) != 0 {
		t.Errorf("layer or open stack wrong: %+v open %v", r.spans[pass], r.open)
	}
}

// Tracing off is a nil recorder: every call must be a no-op.
func TestNilRecorderIsANoOp(t *testing.T) {
	var r *recorder
	r.setOp(1)
	id := r.begin("a", "b")
	r.end(id)
	if r.add("a", "b", 1) != -1 || id != -1 {
		t.Error("nil recorder handed out span ids")
	}
	ran := false
	if err := r.timed("a", "b", func() error { ran = true; return nil }); err != nil || !ran {
		t.Error("nil recorder did not run the timed function")
	}
}

func TestMeanMsAndTraceFile(t *testing.T) {
	spans := []span{
		{Name: "x", StartNs: 0, EndNs: 2e6, Parent: -1},
		{Name: "x", StartNs: 3e6, EndNs: 7e6, Parent: -1, Op: 1},
		{Name: "y", StartNs: 0, EndNs: 9e6, Parent: -1},
	}
	if got := meanMs(spans, 2, named("x")); got != 3 {
		t.Errorf("meanMs = %v, want 3", got)
	}
	if meanMs(spans, 0, named("x")) != 0 {
		t.Error("meanMs over zero ops is not 0")
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeTrace(path, "turb30", spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back traceFile
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Workload != "turb30" || len(back.Spans) != 3 || back.Spans[1] != spans[1] {
		t.Errorf("trace file round trip: %+v", back)
	}
}
