package core

import (
	"reflect"
	"runtime"
	"testing"

	"sphenergy/internal/attrib"
	"sphenergy/internal/cluster"
	"sphenergy/internal/events"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

// observedConfig is a ManDyn Turbulence run on CSCS-A100 with every observer
// on and fresh — tracer, decision ledger, 100 Hz sampler — the
// configuration whose cost over the plain run is the observe overhead.
func observedConfig(ranks, steps int) Config {
	return Config{
		System:           cluster.CSCSA100(),
		Ranks:            ranks,
		Sim:              Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            steps,
		Seed:             42,
		Tracer:           telemetry.NewTracer(ranks),
		Events:           events.NewLedger(0),
		Sampling:         sampler.Config{GPUHz: 100, NodeHz: 10},
		NewStrategy: func() freqctl.Strategy {
			return &freqctl.ManDyn{Table: map[string]int{FnIAD: 1005, FnMomentum: 1110}, Default: 1410}
		},
	}
}

// BenchmarkObservedRun is one op of the benchmark's model_observed workload
// without its file legs: 8 ranks, 300 steps, every observer on, attribution
// joined.
func BenchmarkObservedRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(observedConfig(8, 300))
		if err != nil || !res.Attribution.Pass {
			b.Fatalf("run failed or attribution did not pass: %v", err)
		}
	}
}

// BenchmarkPlainRun is the run every figure of the paper repeats with all
// observers off — 48 ranks on CSCS-A100, Turbulence, 100 steps, baseline
// strategy — and the profiling entry for the rank-phase loop: ns/rank-phase
// is the host time one rank spends in one pipeline function.
func BenchmarkPlainRun(b *testing.B) {
	const ranks, steps = 48, 100
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Config{System: cluster.CSCSA100(), Ranks: ranks, Sim: Turbulence,
			ParticlesPerRank: 10e6, Steps: steps, Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
	phases := float64(b.N) * ranks * steps * float64(len(TurbulencePipeline()))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/phases, "ns/rank-phase")
}

// TestBuildMatchesSpanSliceBuild holds the attribution core.Run joins in
// place — from the tracer's records, no span slice — to attrib.Build over
// Tracer.Spans() on the same run, bit for bit, whatever the worker count.
func TestBuildMatchesSpanSliceBuild(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		cfg := observedConfig(8, 30)
		res, err := Run(cfg)
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		got := res.Attribution
		if got == nil || !got.Pass || len(got.Kernels) == 0 || len(got.Functions) == 0 {
			t.Fatalf("GOMAXPROCS %d: the run's attribution is missing, empty or failed: %+v", procs, got)
		}
		want := attrib.Build(cfg.Tracer.Spans(), res.Sampler.RankSeries(), got.Opts)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("GOMAXPROCS %d: in-place attribution differs from Build(Tracer.Spans(), ...)\n got %+v\nwant %+v", procs, got, want)
		}
	}
}

// observedRunAllocCeiling is 25 % above the 2.85 MB an 8-rank, 30-step
// observed run allocated when it was set — the sampler's, the tracer's and
// the ledger's blocks, the times and energies the join reads off the
// sampler's rings. (13.61 MB at commit 7955eee, 3.66 MB while the join took
// a copy of every sample first, 2.19 MB since nothing records into a
// metrics registry.)
const observedRunAllocCeiling = 3650 << 10

// TestObservedRunAllocBudget fails when observing a run starts to cost
// allocation volume again — a ring preallocated at capacity, a buffer grown
// by append, a slab of spans for the join: each of those was tens of MB a
// run before the buffers moved to blocks and the join read the tracer in
// place.
func TestObservedRunAllocBudget(t *testing.T) {
	if raceDetectorOn() {
		t.Skip("the race detector's shadow allocations are not the run's")
	}
	if _, err := Run(observedConfig(8, 30)); err != nil { // warm one-time tables
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(observedConfig(8, 30))
	runtime.ReadMemStats(&after)
	if err != nil || !res.Attribution.Pass {
		t.Fatalf("run failed or attribution did not pass: %v", err)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("observed run allocated %.2f MB", float64(got)/(1<<20))
	if got > observedRunAllocCeiling {
		t.Errorf("an 8-rank, 30-step observed run allocated %.2f MB, ceiling %.2f MB",
			float64(got)/(1<<20), float64(observedRunAllocCeiling)/(1<<20))
	}
}
