package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/events"
	"sphenergy/internal/report"
	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

// TestSamplingAttributionMatchesGroundTruth is the acceptance check for
// the energy attribution layer: at the default 100 Hz sampling rate, the
// span-joined attribution of every resolvable kernel agrees with the
// gpusim model's exactly-integrated energy within the documented 2%
// tolerance, and so does the energy-weighted aggregate over all kernels.
func TestSamplingAttributionMatchesGroundTruth(t *testing.T) {
	cfg := Config{
		System:           cluster.MiniHPC(),
		Ranks:            2,
		Sim:              Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            3,
		Tracer:           telemetry.NewTracer(2),
		Metrics:          telemetry.NewRegistry(),
		Sampling:         sampler.Config{GPUHz: 100, NodeHz: 10},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := res.Attribution
	if a == nil {
		t.Fatal("sampling + tracer must produce an attribution")
	}
	if res.Report.Attribution != a {
		t.Fatal("attribution not attached to the report")
	}
	if len(a.Kernels) == 0 || len(a.Functions) == 0 {
		t.Fatalf("empty tables: %d kernels, %d functions", len(a.Kernels), len(a.Functions))
	}
	if !a.Pass {
		t.Fatalf("attribution failed its tolerance contract: agg=%.3f%% maxResolvable=%.3f%% (tol %.3f%%)",
			a.AggErrPct, a.MaxResolvableErrPct, a.Opts.TolerancePct)
	}
	resolvable := 0
	for _, r := range a.Kernels {
		if !r.Resolvable {
			continue
		}
		resolvable++
		if math.Abs(r.ErrPct) > a.Opts.TolerancePct {
			t.Errorf("kernel %s rank %d: err %.3f%% > %.1f%%", r.Name, r.Rank, r.ErrPct, a.Opts.TolerancePct)
		}
		if r.EDPJs <= 0 {
			t.Errorf("kernel %s rank %d: non-positive EDP %g", r.Name, r.Rank, r.EDPJs)
		}
	}
	if resolvable == 0 {
		t.Fatal("no resolvable kernels at 100 Hz — gate is vacuous")
	}

	// Cross-check against the device's own ground-truth accounting: the
	// attribution's ModelJ per kernel must equal the per-device integrated
	// energy (the spans carry exactly what the device accumulated).
	for r := 0; r < cfg.Ranks; r++ {
		_, dev, err := res.System.DeviceForRank(r)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{}
		for _, k := range dev.KernelEnergies() {
			want[k.Name] = k.EnergyJ
		}
		got := map[string]float64{}
		for _, row := range a.Kernels {
			if row.Rank == r {
				got[row.Name] = row.ModelJ
			}
		}
		if len(got) != len(want) {
			t.Fatalf("rank %d: %d attributed kernels, device ran %d", r, len(got), len(want))
		}
		for name, wj := range want {
			if gj := got[name]; math.Abs(gj-wj) > 1e-6*math.Max(1, wj) {
				t.Errorf("rank %d kernel %s: span ModelJ %g != device ground truth %g", r, name, gj, wj)
			}
		}
	}

	// Rank summaries must cover both ranks with sampled series behind them.
	if len(a.Ranks) != cfg.Ranks {
		t.Fatalf("rank summaries = %d, want %d", len(a.Ranks), cfg.Ranks)
	}
	for _, rs := range a.Ranks {
		if rs.Samples == 0 {
			t.Errorf("rank %d has no retained samples", rs.Rank)
		}
	}
}

// TestSamplingExposesLiveMetrics verifies the acceptance criterion that
// the Prometheus exposition includes per-device power gauges and
// cumulative energy counters fed by the async sampler.
func TestSamplingExposesLiveMetrics(t *testing.T) {
	cfg := Config{
		System:           cluster.MiniHPC(),
		Ranks:            2,
		Sim:              Turbulence,
		ParticlesPerRank: 8e6,
		Steps:            2,
		Metrics:          telemetry.NewRegistry(),
		Sampling:         sampler.Config{GPUHz: 100},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := cfg.Metrics.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE sampled_power_w gauge",
		"# TYPE sampled_energy_j_total counter",
		`rank="0"`,
		`rank="1"`,
		`sensor="node0:cray:energy"`,
		"sampler_ticks_total",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// The rank channels' accumulated energy must track the loop GPU energy.
	gpuJ := res.Report.GPUEnergyJ
	sampJ := res.Sampler.RankAccumJ()
	if gpuJ <= 0 || math.Abs(sampJ-gpuJ)/gpuJ > 0.02 {
		t.Fatalf("sampled GPU energy %g vs report %g (>2%% apart)", sampJ, gpuJ)
	}
}

// TestSamplingOffIsInert pins the default path: no sampling config means
// no sampler, no attribution, and no behavioural change to the run.
func TestSamplingOffIsInert(t *testing.T) {
	cfg := Config{
		System:           cluster.MiniHPC(),
		Ranks:            1,
		Sim:              Turbulence,
		ParticlesPerRank: 8e6,
		Steps:            2,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampler != nil || res.Attribution != nil {
		t.Fatal("sampling artifacts present without Sampling config")
	}
	if res.Report.Attribution != nil {
		t.Fatal("report attribution present without sampling")
	}

	cfg2 := cfg
	cfg2.Sampling = sampler.Config{GPUHz: 100, NodeHz: 10}
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	// Sampling must not perturb the simulation: identical energy totals.
	if res.Report.TotalEnergyJ != res2.Report.TotalEnergyJ || res.WallTimeS != res2.WallTimeS {
		t.Fatalf("sampling perturbed the run: %g/%g J, %g/%g s",
			res.Report.TotalEnergyJ, res2.Report.TotalEnergyJ, res.WallTimeS, res2.WallTimeS)
	}
}

// BenchmarkSamplerOverhead quantifies the cost the async sampler adds to
// a run at the paper's step count, across the rates the real back-ends
// use (10 Hz BMC/pm_counters, 100 Hz NVML). Compare:
//
//	go test -bench SamplerOverhead -benchtime 100x -count 3 ./internal/core/
//
// Sampling piggybacks on existing hook points (one Poll per kernel/idle
// boundary), so the marginal cost is the tick emission itself: a few
// lerps and ring appends per elapsed period. At 100 Hz that is ~hundreds
// of ticks per simulated second — small against the per-step simulation
// work, and zero when Sampling is unset (nil-channel fast path).
func BenchmarkSamplerOverhead(b *testing.B) {
	base := Config{
		System:           cluster.MiniHPC(),
		Ranks:            2,
		Sim:              Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            100,
	}
	for _, bc := range []struct {
		name string
		cfg  sampler.Config
	}{
		{"off", sampler.Config{}},
		{"10Hz", sampler.Config{GPUHz: 10, NodeHz: 10}},
		{"100Hz", sampler.Config{GPUHz: 100, NodeHz: 10}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			cfg := base
			cfg.Sampling = bc.cfg
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSamplerOverflowFailsAttributionWithReason drives the rank rings to
// their wrap point: with room for every tick the join is clean and
// serialises as it always did; one slot short, the rings drop one sample per
// rank and the attribution fails with that count as its stated reason — in
// the struct, the report JSON, the rendered table and one ledger event.
func TestSamplerOverflowFailsAttributionWithReason(t *testing.T) {
	run := func(ringCap int) (*Result, *events.Ledger) {
		led := events.NewLedger(0)
		res, err := Run(Config{
			System:           cluster.MiniHPC(),
			Ranks:            2,
			Sim:              Turbulence,
			ParticlesPerRank: 10e6,
			Steps:            3,
			Tracer:           telemetry.NewTracer(2),
			Events:           led,
			Sampling:         sampler.Config{GPUHz: 100, NodeHz: 10, RingCap: ringCap},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, led
	}
	reportJSON := func(res *Result) string {
		b, err := json.Marshal(res.Report)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	ref, _ := run(0) // the default ring is far larger than a 3-step run
	var ticks uint64
	for _, st := range ref.Sampler.Stats() {
		if st.Rank >= 0 {
			if st.Dropped != 0 {
				t.Fatalf("reference run dropped %d samples", st.Dropped)
			}
			if ticks != 0 && st.Ticks != ticks {
				t.Fatalf("rank channels disagree on the tick count: %d vs %d", st.Ticks, ticks)
			}
			ticks = st.Ticks
		}
	}
	if ticks < 10 {
		t.Fatalf("only %d ticks: no wrap point to test", ticks)
	}

	// Exactly full: nothing dropped, nothing new said.
	full, led := run(int(ticks))
	if a := full.Attribution; !a.Pass || a.DroppedSamples != 0 {
		t.Fatalf("ring of exactly %d ticks: pass=%v dropped=%d", ticks, a.Pass, a.DroppedSamples)
	}
	if got, want := reportJSON(full), reportJSON(ref); got != want {
		t.Error("a full ring without drops serialises differently from the default ring")
	}
	if strings.Contains(reportJSON(full), "dropped_samples") {
		t.Error("a join without drops serialises a dropped-sample count")
	}
	if n := led.Summary().ByType[events.SamplerOverflow]; n != 0 {
		t.Errorf("%d sampler-overflow events without an overflow", n)
	}

	// One slot short: each of the two rank rings rotates out one sample.
	short, led := run(int(ticks) - 1)
	a := short.Attribution
	if a.DroppedSamples != 2 || a.Pass {
		t.Fatalf("ring one short of %d ticks: dropped=%d pass=%v, want 2 and a failed attribution",
			ticks, a.DroppedSamples, a.Pass)
	}
	if !strings.Contains(reportJSON(short), `"dropped_samples":2`) {
		t.Error("report JSON lacks the dropped-sample count")
	}
	if out := report.RenderAttribution(a, 0); !strings.Contains(out, "2 samples dropped") {
		t.Errorf("rendered attribution does not state the reason:\n%s", out)
	}
	if n := led.Summary().ByType[events.SamplerOverflow]; n != 1 {
		t.Errorf("%d sampler-overflow events, want exactly 1", n)
	}
}
