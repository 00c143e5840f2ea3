package attrib

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

// degrade marks the tick intervals ending at the given tick indices, in
// ascending order, as degraded, mirroring what the sampler's degradation
// path emits: runs of grid indices.
func degrade(s sampler.Series, idx ...int) sampler.Series {
	for _, i := range idx {
		k := s.First + int64(i)
		if n := len(s.Degraded); n > 0 && s.Degraded[n-1].To == k {
			s.Degraded[n-1].To++
		} else {
			s.Degraded = append(s.Degraded, sampler.TickRun{From: k, To: k + 1})
		}
	}
	return s
}

func TestBuildExcludesDegradedRowsFromGates(t *testing.T) {
	// Three 1 s kernels at 10 Hz; the middle second is served by
	// extrapolated estimates (ticks 11..20 degraded). Kernel B overlaps the degraded
	// window, so it must be classified — flagged and excluded from both
	// gates — rather than allowed to fail the run.
	samples := grid(10, [2]float64{1, 200}, [2]float64{1, 50}, [2]float64{1, 300})
	series := map[int]sampler.Series{0: degrade(samples, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20)}
	tr := telemetry.NewTracer(1)
	kA := tr.Intern("kernel", "A", "clock_mhz", "energy_j")
	kB := tr.Intern("kernel", "B", "clock_mhz", "energy_j")
	kC := tr.Intern("kernel", "C", "clock_mhz", "energy_j")
	tr.CompleteRef(0, kA, 0, 1, 1410, 200)
	tr.CompleteRef(0, kB, 1, 1, 1410, 50)
	tr.CompleteRef(0, kC, 2, 1, 1410, 300)

	a := Build(tr.Spans(), series, Options{RateHz: 10})
	byName := map[string]Row{}
	for _, r := range a.Kernels {
		byName[r.Name] = r
	}
	if !byName["B"].Degraded || byName["B"].DegradedPct < 99 {
		t.Fatalf("B = %+v, want fully degraded", byName["B"])
	}
	if byName["A"].Degraded || byName["C"].Degraded {
		t.Fatalf("clean kernels flagged: A=%+v C=%+v", byName["A"], byName["C"])
	}
	if !a.Degraded || a.DegradedRows != 1 {
		t.Fatalf("attribution degradation = (%v, %d), want (true, 1)", a.Degraded, a.DegradedRows)
	}
	if math.Abs(a.DegradedEnergyJ-byName["B"].ModelJ) > 1e-9 {
		t.Fatalf("DegradedEnergyJ = %g, want B's %g", a.DegradedEnergyJ, byName["B"].ModelJ)
	}
	// The clean kernels align with the grid, so the run still passes.
	if !a.Pass {
		t.Fatalf("clean rows should still gate to pass: agg=%g max=%g",
			a.AggErrPct, a.MaxResolvableErrPct)
	}
}

func TestBuildDegradedRowCannotFailGate(t *testing.T) {
	// The degraded interval's estimated energy is badly wrong (constant
	// extrapolation over a power step). A non-degraded build fails the
	// per-row gate; the degraded build classifies the row instead.
	mk := func(deg bool) *Attribution {
		samples := grid(10, [2]float64{1, 100}, [2]float64{1, 400})
		if deg {
			samples = degrade(samples, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20)
		}
		tr := telemetry.NewTracer(1)
		kA := tr.Intern("kernel", "A", "clock_mhz", "energy_j")
		kB := tr.Intern("kernel", "B", "clock_mhz", "energy_j")
		tr.CompleteRef(0, kA, 0, 1, 1410, 100)
		// B claims 700 J but the sensors saw 400 J: 75% row error.
		tr.CompleteRef(0, kB, 1, 1, 1410, 700)
		return Build(tr.Spans(), map[int]sampler.Series{0: samples}, Options{RateHz: 10})
	}
	if clean := mk(false); clean.Pass {
		t.Fatalf("control run should fail its gates: %+v", clean)
	}
	a := mk(true)
	if !a.Pass || !a.Degraded {
		t.Fatalf("degraded run = (pass=%v, degraded=%v), want (true, true)", a.Pass, a.Degraded)
	}
}

func TestBuildFlagsSubIntervalSpansNearDegradedTicks(t *testing.T) {
	// A span too short to contain a sample interval is estimated from its
	// neighbor intervals' power. When a neighbor is degraded — e.g. the
	// recovery tick carrying a reconciliation backlog — the span
	// rests on estimated data and must be classified even though its own
	// time window is clean. (Found by the seeded chaos sweep: tiny
	// Timestep rows next to recovery ticks showed >1000% error unflagged.)
	samples := grid(10, [2]float64{1, 100}, [2]float64{1, 100}, [2]float64{1, 100})
	series := map[int]sampler.Series{0: degrade(samples, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20)}
	tr := telemetry.NewTracer(1)
	k := tr.Intern("kernel", "tiny", "clock_mhz", "energy_j")
	// Entirely inside the clean interval (2.02, 2.08) but adjacent work
	// would borrow interval powers around it; the preceding degraded
	// window sits one interval away from its start estimate at t=2.02
	// (locate -> interval [2.0,2.1), preceding interval (1.9,2.0] is
	// degraded).
	tr.CompleteRef(0, k, 2.02, 0.06, 1410, 6)

	a := Build(tr.Spans(), series, Options{RateHz: 10})
	if len(a.Kernels) != 1 {
		t.Fatalf("kernels = %+v", a.Kernels)
	}
	r := a.Kernels[0]
	if !r.Degraded {
		t.Fatalf("sub-interval span next to a degraded tick not classified: %+v", r)
	}
	if r.DegradedPct > 100+1e-9 {
		t.Fatalf("DegradedPct = %g, must stay a fraction of the span", r.DegradedPct)
	}
	// A span with interior samples well clear of the degraded window
	// stays clean (the padding must not over-flag the exact path).
	tr2 := telemetry.NewTracer(1)
	k2 := tr2.Intern("kernel", "wide", "clock_mhz", "energy_j")
	tr2.CompleteRef(0, k2, 2.3, 0.5, 1410, 50)
	samples2 := grid(10, [2]float64{1, 100}, [2]float64{1, 100}, [2]float64{1, 100})
	series2 := map[int]sampler.Series{0: degrade(samples2, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20)}
	b := Build(tr2.Spans(), series2, Options{RateHz: 10})
	if len(b.Kernels) != 1 || b.Kernels[0].Degraded {
		t.Fatalf("interior-interval span over clean ticks flagged: %+v", b.Kernels)
	}
}

func TestBuildReportsAchievedClock(t *testing.T) {
	// Two spans of one kernel at different achieved clocks: ClockMHz must
	// be the span-time-weighted mean, and TopKernels must preserve it
	// across aggregation.
	series := map[int]sampler.Series{0: grid(10, [2]float64{2, 100})}
	tr := telemetry.NewTracer(1)
	k := tr.Intern("kernel", "momentum", "clock_mhz", "energy_j")
	tr.CompleteRef(0, k, 0, 1.5, 801, 150) // clamped window
	tr.CompleteRef(0, k, 1.5, 0.5, 1410, 50)

	a := Build(tr.Spans(), series, Options{RateHz: 10})
	want := (801*1.5 + 1410*0.5) / 2.0
	if len(a.Kernels) != 1 || math.Abs(a.Kernels[0].ClockMHz-want) > 1e-9 {
		t.Fatalf("ClockMHz = %+v, want %g", a.Kernels, want)
	}
	top := a.TopKernels(5)
	if len(top) != 1 || math.Abs(top[0].ClockMHz-want) > 1e-9 {
		t.Fatalf("TopKernels ClockMHz = %+v, want %g", top, want)
	}
}

func TestTopKernelsSurvivesJSONRoundTrip(t *testing.T) {
	// `inspect energy` re-aggregates rows parsed from disk, where the scratch
	// accumulators are gone: Degraded, DegradedPct and ClockMHz must be
	// rebuilt from the exported fields.
	samples := grid(10, [2]float64{1, 200}, [2]float64{1, 50})
	series := map[int]sampler.Series{0: degrade(samples, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20)}
	tr := telemetry.NewTracer(1)
	k := tr.Intern("kernel", "A", "clock_mhz", "energy_j")
	tr.CompleteRef(0, k, 0, 1, 1005, 200)
	tr.CompleteRef(0, k, 1, 1, 1005, 50)
	a := Build(tr.Spans(), series, Options{RateHz: 10})

	blob, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	var back Attribution
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	orig, loaded := a.TopKernels(0), back.TopKernels(0)
	if len(orig) != 1 || len(loaded) != 1 {
		t.Fatalf("rows: %d vs %d", len(orig), len(loaded))
	}
	o, l := orig[0], loaded[0]
	if !l.Degraded || math.Abs(l.DegradedPct-o.DegradedPct) > 1e-9 {
		t.Fatalf("degradation lost in round trip: %+v vs %+v", l, o)
	}
	if math.Abs(l.ClockMHz-o.ClockMHz) > 1e-9 {
		t.Fatalf("achieved clock lost in round trip: %g vs %g", l.ClockMHz, o.ClockMHz)
	}
}

func TestValidationMarkDegraded(t *testing.T) {
	v := NewValidation(1000, 2)
	v.Add("sampled-sensors", 1100, false) // 10% off: would fail
	v.Add("slurm-consumed", 1005, false)  // fine
	if v.Pass {
		t.Fatal("10% source should fail the gate")
	}
	v.MarkDegraded("sampled-sensors")
	if !v.Pass {
		t.Fatal("degraded source must stop gating")
	}
	s, ok := v.Get("sampled-sensors")
	if !ok || !s.Degraded || !s.Pass {
		t.Fatalf("source = %+v", s)
	}
	sum := v.Summary()
	if !strings.Contains(sum, "PASS") || !strings.Contains(sum, "1 degraded") {
		t.Fatalf("summary = %q", sum)
	}
	if !strings.Contains(sum, "1/1") {
		t.Fatalf("summary should count only the remaining gating source: %q", sum)
	}
}

func TestValidationMarkDegradedKeepsRealFailures(t *testing.T) {
	v := NewValidation(1000, 2)
	v.Add("sampled-sensors", 1100, false)
	v.Add("slurm-consumed", 1300, false)
	v.MarkDegraded("sampled-sensors")
	if v.Pass {
		t.Fatal("non-degraded failing source must still fail the gate")
	}
}
