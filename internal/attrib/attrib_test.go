package attrib

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"sphenergy/internal/blocks"
	"sphenergy/internal/pmt"
	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

// grid builds a tick series sampling a piecewise-constant power profile
// exactly: segs are (duration, watts) pairs starting at t=0.
func grid(hz float64, segs ...[2]float64) sampler.Series {
	period := 1 / hz
	var end float64
	for _, s := range segs {
		end += s[0]
	}
	energyAt := func(t float64) float64 {
		e, t0 := 0.0, 0.0
		for _, s := range segs {
			t1 := t0 + s[0]
			if t <= t0 {
				break
			}
			upto := math.Min(t, t1)
			e += (upto - t0) * s[1]
			t0 = t1
		}
		return e
	}
	out := sampler.Series{PeriodS: period}
	for i := 0; ; i++ {
		t := float64(i) * period
		if t > end+1e-9 {
			break
		}
		slot, _ := out.Energies.Push()
		*slot = energyAt(t)
	}
	return out
}

// gridReads is what a sensor sampling the power profile of grid reads at
// its ticks: the exact cumulative energy, from t=0.
func gridReads(hz float64, segs ...[2]float64) []pmt.State {
	s := grid(hz, segs...)
	reads := make([]pmt.State, s.Len())
	for i := range reads {
		reads[i] = pmt.State{TimeS: s.TimeS(i), EnergyJ: *s.Energies.At(i)}
	}
	return reads
}

// tick is one tick of a series, materialised: what the sampler stored for
// it before a series held energies only.
type tick struct {
	TimeS, EnergyJ float64
	Degraded       bool
}

// materialise lists a series' ticks, oldest first.
func materialise(s sampler.Series) []tick {
	var out []tick
	for i := 0; i < s.Len(); i++ {
		k := s.First + int64(i)
		flagged := false
		for _, r := range s.Degraded {
			flagged = flagged || r.From <= k && k < r.To
		}
		out = append(out, tick{TimeS: s.TimeS(i), EnergyJ: *s.Energies.At(i), Degraded: flagged})
	}
	return out
}

// TestWindowMatchesSearch holds the join's index arithmetic to sort.Search
// over the materialised tick times, for span bounds drawn at random, on
// exact tick times and one ulp either side of them, beyond both ends of the
// series and at ±Inf and NaN; for periods that are and are not binary
// fractions, first grid indices from 0 up to 2^40, and rings that have
// wrapped.
func TestWindowMatchesSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked := 0
	for _, period := range []float64{1.0 / 100, 1.0 / 10, 0.01, 0.25, 1.0 / 3} {
		for _, first := range []int64{0, 1, 777, 1<<32 + 5, 1<<40 - 1, 1 << 40} {
			for _, held := range []int{0, 1, 2, 300, 2*blocks.Len + 37} {
				ser := sampler.Series{First: first, PeriodS: period, Energies: blocks.Bounded[float64](held)}
				for i := -rng.Intn(2*held + 1); i < held; i++ {
					slot, _ := ser.Energies.Push()
					*slot = float64(i)
				}
				times := make([]float64, held)
				for i, tk := range materialise(ser) {
					times[i] = tk.TimeS
				}
				es := newEnergySeries(ser)
				bound := func() float64 {
					k := float64(first + int64(rng.Intn(held+7)-3))
					tk := k * period
					switch rng.Intn(5) {
					case 0:
						return math.Nextafter(tk, math.Inf(-1))
					case 1:
						return math.Nextafter(tk, math.Inf(1))
					case 2:
						return (k + rng.Float64()) * period
					}
					return tk
				}
				odd := []float64{math.Inf(-1), math.Inf(1), math.NaN(), -1, 0}
				for n := 0; n < 400; n++ {
					startS, endS := bound(), bound()
					if n < len(odd) {
						startS, endS = odd[n], odd[len(odd)-1-n]
					}
					lo, hi := es.window(startS, endS)
					wantLo := sort.SearchFloat64s(times, startS)
					wantHi := sort.Search(held, func(i int) bool { return times[i] > endS }) - 1
					if lo != wantLo || hi != wantHi {
						t.Fatalf("period %v, first %d, %d held: window(%v, %v) = (%d, %d), want (%d, %d)",
							period, first, held, startS, endS, lo, hi, wantLo, wantHi)
					}
					checked++
				}
			}
		}
	}
	t.Logf("%d windows checked", checked)
}

func TestBuildExactWhenSpansAlignWithTicks(t *testing.T) {
	// 200 W for 1 s (kernel A), 50 W for 1 s (idle), 300 W for 1 s
	// (kernel B) — span boundaries on whole seconds align with the 10 Hz
	// grid, so lerp attribution is exact.
	series := map[int]sampler.Series{
		0: grid(10, [2]float64{1, 200}, [2]float64{1, 50}, [2]float64{1, 300}),
	}
	tr := telemetry.NewTracer(1)
	kA := tr.Intern("kernel", "A", "clock_mhz", "energy_j")
	kB := tr.Intern("kernel", "B", "clock_mhz", "energy_j")
	tr.CompleteRef(0, kA, 0, 1, 1410, 200)
	tr.CompleteRef(0, kB, 2, 1, 1410, 300)

	a := Build(tr.Spans(), series, Options{RateHz: 10})
	if len(a.Kernels) != 2 {
		t.Fatalf("kernels = %d, want 2", len(a.Kernels))
	}
	// Sorted by descending model energy: B (300) then A (200).
	if a.Kernels[0].Name != "B" || a.Kernels[1].Name != "A" {
		t.Fatalf("order = %s, %s", a.Kernels[0].Name, a.Kernels[1].Name)
	}
	for _, r := range a.Kernels {
		if math.Abs(r.ErrPct) > 1e-9 {
			t.Fatalf("kernel %s err = %g%%, want 0", r.Name, r.ErrPct)
		}
		if !r.Resolvable {
			t.Fatalf("kernel %s should be resolvable (1 s at 10 Hz)", r.Name)
		}
	}
	if b := a.Kernels[0]; math.Abs(b.EDPJs-300) > 1e-9 {
		t.Fatalf("B EDP = %g, want 300 J·s", b.EDPJs)
	}
	if !a.Pass {
		t.Fatalf("attribution should pass: agg=%g max=%g", a.AggErrPct, a.MaxResolvableErrPct)
	}
	if len(a.Ranks) != 1 || math.Abs(a.Ranks[0].ErrPct) > 1e-9 {
		t.Fatalf("rank summary = %+v", a.Ranks)
	}
}

func TestBuildMisalignedSpanHasBoundedError(t *testing.T) {
	// A short 250 W burst (0.95 s..1.05 s) straddles one 1 Hz tick:
	// per-row error is large, but it is unresolvable at 1 Hz and the
	// energy-weighted aggregate stays bounded by one period's energy.
	series := map[int]sampler.Series{
		0: grid(1, [2]float64{0.95, 100}, [2]float64{0.1, 250}, [2]float64{0.95, 100}),
	}
	tr := telemetry.NewTracer(1)
	long := tr.Intern("kernel", "long", "clock_mhz", "energy_j")
	burst := tr.Intern("kernel", "burst", "clock_mhz", "energy_j")
	tr.CompleteRef(0, long, 0, 0.95, 1410, 95)
	tr.CompleteRef(0, burst, 0.95, 0.1, 1410, 25)

	a := Build(tr.Spans(), series, Options{RateHz: 1})
	var b Row
	for _, r := range a.Kernels {
		if r.Name == "burst" {
			b = r
		}
	}
	if b.Resolvable {
		t.Fatal("0.1 s kernel at 1 Hz must be unresolvable")
	}
	if b.ErrPct == 0 {
		t.Fatal("misaligned burst should carry attribution error")
	}
	// Unresolvable rows are excluded from the per-row gate.
	if a.MaxResolvableErrPct > DefaultTolerancePct+1e-9 {
		lr := a.Kernels
		t.Fatalf("resolvable max err = %g%% rows=%+v", a.MaxResolvableErrPct, lr)
	}
}

func TestBuildIgnoresOtherSpans(t *testing.T) {
	series := map[int]sampler.Series{0: grid(10, [2]float64{1, 100})}
	tr := telemetry.NewTracer(1)
	tr.RecordSpan(0, "mpi", "barrier", 0, 0.5)
	tr.RecordSpan(telemetry.GlobalTrack, "step", "step 0", 0, 1)
	tr.InstantRef(0, tr.Intern("kernel", "phantom"), 0.5, 0, 0)
	a := Build(tr.Spans(), series, Options{RateHz: 10})
	if len(a.Kernels) != 0 || len(a.Functions) != 0 {
		t.Fatalf("unexpected rows: %+v %+v", a.Kernels, a.Functions)
	}
	if a.Pass {
		t.Fatal("empty attribution must not pass")
	}
}

func TestBuildFunctions(t *testing.T) {
	series := map[int]sampler.Series{
		0: grid(10, [2]float64{2, 150}),
	}
	tr := telemetry.NewTracer(1)
	fn := tr.Intern("function", "MomentumEnergyIAD", "gpu_j", "comm_s")
	tr.CompleteRef(0, fn, 0, 1, 150, 0.1)
	tr.CompleteRef(0, fn, 1, 1, 150, 0.1)
	a := Build(tr.Spans(), series, Options{RateHz: 10})
	if len(a.Functions) != 1 {
		t.Fatalf("functions = %d, want 1", len(a.Functions))
	}
	f := a.Functions[0]
	if f.Calls != 2 || math.Abs(f.ModelJ-300) > 1e-9 || math.Abs(f.ErrPct) > 1e-9 {
		t.Fatalf("function row = %+v", f)
	}
}

// TestOnlineReadsArgsLikeArg: the online join reads each identity's truth
// and clock where SpanEvent.Arg finds them — float keys first, in order,
// then the label, whose value reads 0 — so it equals the slice's feed bit
// for bit on identities that lack the truth key, whose label key is
// clock_mhz or energy_j, or that repeat a key, with rows of one name shared
// across identities and ranks.
func TestOnlineReadsArgsLikeArg(t *testing.T) {
	for _, c := range []struct {
		name   string
		intern func(tr *telemetry.Tracer) []telemetry.SpanRef
	}{
		{"kernel without energy_j", func(tr *telemetry.Tracer) []telemetry.SpanRef {
			return []telemetry.SpanRef{
				tr.Intern("kernel", "density", "clock_mhz"),
				tr.Intern("kernel", "density", "clock_mhz", "gpu_j"),
				tr.Intern("kernel", "iad"),
				tr.Intern("function", "Density", "energy_j", "comm_s"),
			}
		}},
		{"label key clock_mhz or energy_j", func(tr *telemetry.Tracer) []telemetry.SpanRef {
			return []telemetry.SpanRef{
				tr.InternWith("kernel", "density", "clock_mhz", "boost", "energy_j"),
				tr.InternWith("kernel", "density", "energy_j", "x", "clock_mhz"),
				tr.InternWith("kernel", "iad", "clock_mhz", "boost", "energy_j", "clock_mhz"),
				tr.InternWith("kernel", "iad", "energy_j", "x", "clock_mhz", "energy_j"),
				tr.InternWith("function", "Density", "gpu_j", "x", "clock_mhz"),
				tr.InternWith("function", "Density", "clock_mhz", "boost", "gpu_j"),
			}
		}},
		{"repeated key", func(tr *telemetry.Tracer) []telemetry.SpanRef {
			return []telemetry.SpanRef{
				tr.Intern("kernel", "density", "energy_j", "energy_j"),
				tr.Intern("kernel", "density", "clock_mhz", "clock_mhz"),
				tr.Intern("kernel", "iad", "clock_mhz", "energy_j"),
				tr.Intern("function", "Density", "gpu_j", "gpu_j"),
			}
		}},
	} {
		smp, twin := twinSamplers(10, map[int][]pmt.State{
			0: gridReads(10, [2]float64{2, 150}, [2]float64{2, 300}),
			1: gridReads(10, [2]float64{4, 220}),
		})
		tr := telemetry.NewTracer(2)
		refs := c.intern(tr)
		for i := 0; i < 40; i++ {
			rank := i % 2
			tr.CompleteRef(rank, refs[i%len(refs)], 0.1*float64(i), 0.07, 1005+float64(i), 30+float64(i))
		}
		o := NewOnline(tr, smp, Options{RateHz: 10})
		for i := 0; i < 41; i++ {
			for _, s := range []*sampler.Sampler{smp, twin} {
				s.PollAll()
			}
			if i == 20 {
				o.Advance(math.Inf(1))
			}
		}
		want := Build(tr.Spans(), twin.RankSeries(), Options{RateHz: 10})
		if len(want.Kernels) == 0 {
			t.Fatalf("%s: no kernel rows", c.name)
		}
		if got := o.Finish(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the online join differs from Build(t.Spans())\n got %+v\nwant %+v", c.name, got, want)
		}
	}
}

func TestTopKernelsAggregatesRanks(t *testing.T) {
	series := map[int]sampler.Series{
		0: grid(10, [2]float64{1, 100}),
		1: grid(10, [2]float64{1, 200}),
	}
	tr := telemetry.NewTracer(2)
	k := tr.Intern("kernel", "density", "clock_mhz", "energy_j")
	tr.CompleteRef(0, k, 0, 1, 1410, 100)
	tr.CompleteRef(1, k, 0, 1, 1410, 200)
	a := Build(tr.Spans(), series, Options{RateHz: 10})
	top := a.TopKernels(5)
	if len(top) != 1 {
		t.Fatalf("top = %d, want 1", len(top))
	}
	if top[0].Calls != 2 || math.Abs(top[0].ModelJ-300) > 1e-9 {
		t.Fatalf("aggregated row = %+v", top[0])
	}
}

func TestRelErrPct(t *testing.T) {
	if e := relErrPct(102, 100); math.Abs(e-2) > 1e-12 {
		t.Fatalf("err = %g", e)
	}
	if e := relErrPct(0, 0); e != 0 {
		t.Fatalf("0/0 err = %g", e)
	}
	if e := relErrPct(5, 0); e != 100 {
		t.Fatalf("x/0 err = %g", e)
	}
	if e := relErrPct(-5, 0); e != -100 {
		t.Fatalf("-x/0 err = %g", e)
	}
}

func TestValidationThreeWay(t *testing.T) {
	v := NewValidation(1000, 2)
	v.Add("sampled-sensors", 1005, false)
	v.Add("pm_counters", 995, false)
	v.Add("slurm-consumed", 1000, false)
	v.Add("pmt-loop-only", 900, true) // Fig. 3 gap: informational
	if !v.Pass {
		t.Fatalf("validation should pass: %+v", v.Sources)
	}
	s, ok := v.Get("pmt-loop-only")
	if !ok || !s.Pass || !s.Informational {
		t.Fatalf("informational source = %+v", s)
	}
	if got := v.Summary(); !strings.Contains(got, "PASS: 3/3") {
		t.Fatalf("summary = %q", got)
	}

	v2 := NewValidation(1000, 2)
	v2.Add("sampled-sensors", 1050, false) // 5% off
	if v2.Pass {
		t.Fatal("5% deviation must fail a 2% threshold")
	}
	if got := v2.Summary(); !strings.Contains(got, "FAIL: 0/1") {
		t.Fatalf("summary = %q", got)
	}
}

func TestValidationZeroReference(t *testing.T) {
	v := NewValidation(0, 0)
	if v.ThresholdPct != DefaultTolerancePct {
		t.Fatalf("threshold = %g", v.ThresholdPct)
	}
	v.Add("sampled-sensors", 5, false)
	if v.Pass {
		t.Fatal("nonzero reading against zero reference must fail")
	}
}
