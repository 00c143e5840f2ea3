package main

import (
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"sphenergy/internal/benchfmt"
)

// sampleBench builds a plausible baseline with all checked fields set.
func sampleBench() *benchfmt.Output {
	mode := func(allocs float64, over map[string]float64) benchfmt.ModeResult {
		ns := map[string]float64{
			"find_neighbors":  6000,
			"xmass":           400,
			"gradh":           800,
			"eos":             6,
			"iad":             1800,
			"av_switches":     10,
			"momentum_energy": 2400,
			"timestep":        8,
			"update":          20,
		}
		for k, v := range over {
			ns[k] = v
		}
		total := 0.0
		for _, v := range ns {
			total += v
		}
		ns[benchfmt.TotalKey] = total
		return benchfmt.ModeResult{
			NsPerParticleStep: ns,
			StepMs:            total * 8000 / 1e6,
			AllocsPerStep:     allocs,
		}
	}
	walk := mode(13000, map[string]float64{"find_neighbors": 4400, "momentum_energy": 7200})
	list := mode(90, map[string]float64{
		"find_neighbors": 6100, "xmass": 950, "gradh": 25,
		"iad": 1300, "momentum_energy": 1150,
	})
	list.Skin = 0.3
	list.Rebuilds = 1
	list.Refreshes = 3
	list.RebuildIntervalSteps = 4
	list.RebuildNsPerParticle = 9000
	list.RefreshNsPerParticle = 4000
	listAt4 := mode(140, map[string]float64{
		"find_neighbors": 1900, "xmass": 300, "gradh": 9,
		"iad": 420, "momentum_energy": 370,
	})
	return &benchfmt.Output{
		Benchmark:  "sph_pipeline",
		GoMaxProcs: 1,
		NumCPU:     8,
		Sizes: []benchfmt.SizeResult{{
			NSide: 20, N: 8000, NgTarget: 64, Warmup: 1, Steps: 4,
			Modes: map[string]benchfmt.ModeResult{
				"closure_walk":  walk,
				"neighbor_list": list,
			},
			SpeedupTotal: walk.StepMs / list.StepMs,
			Sweep: []benchfmt.SweepPoint{
				{Procs: 1, NsPerParticleStep: list.NsPerParticleStep, StepMs: list.StepMs, SpeedupVs1: 1},
				{Procs: 4, NsPerParticleStep: listAt4.NsPerParticleStep, StepMs: listAt4.StepMs,
					SpeedupVs1: list.StepMs / listAt4.StepMs},
			},
		}},
	}
}

// clone deep-copies through the JSON round trip the real tool performs.
func clone(t *testing.T, o *benchfmt.Output) *benchfmt.Output {
	t.Helper()
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var c benchfmt.Output
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return &c
}

func TestGateIdenticalRunsPass(t *testing.T) {
	base := sampleBench()
	for _, tol := range []Tolerances{Default(), Smoke()} {
		if fails := Gate(base, clone(t, base), tol); len(fails) != 0 {
			t.Errorf("identical runs failed the gate: %v", fails)
		}
	}
}

// inflate slows one pass by factor in every mode, keeping totals honest.
func inflate(t *testing.T, o *benchfmt.Output, pass string, factor float64) *benchfmt.Output {
	t.Helper()
	c := clone(t, o)
	for _, sz := range c.Sizes {
		for name, m := range sz.Modes {
			old := m.NsPerParticleStep[pass]
			m.NsPerParticleStep[pass] = old * factor
			m.NsPerParticleStep[benchfmt.TotalKey] += old * (factor - 1)
			m.StepMs *= m.NsPerParticleStep[benchfmt.TotalKey] / (m.NsPerParticleStep[benchfmt.TotalKey] - old*(factor-1))
			sz.Modes[name] = m
		}
	}
	return c
}

func TestGateSlowedPassFails(t *testing.T) {
	base := sampleBench()
	slowed := inflate(t, base, "momentum_energy", 3)
	fails := Gate(base, slowed, Default())
	if len(fails) == 0 {
		t.Fatal("3x-slower momentum_energy passed the gate")
	}
	joined := strings.Join(fails, "\n")
	if !strings.Contains(joined, "momentum_energy") {
		t.Errorf("failures do not name the slowed pass:\n%s", joined)
	}
	// A gross slowdown must also trip the relaxed smoke gate — that is
	// exactly what CI exists to catch.
	if fails := Gate(base, inflate(t, base, "momentum_energy", 4), Smoke()); len(fails) == 0 {
		t.Error("4x-slower momentum_energy passed the smoke gate")
	}
}

func TestGateNoiseWithinTolerancePasses(t *testing.T) {
	base := sampleBench()
	noisy := inflate(t, base, "momentum_energy", 1.15) // 15% — timer noise
	if fails := Gate(base, noisy, Default()); len(fails) != 0 {
		t.Errorf("15%% pass drift failed the gate: %v", fails)
	}
}

func TestGateAllocRegressionFails(t *testing.T) {
	base := sampleBench()
	c := clone(t, base)
	m := c.Sizes[0].Modes["neighbor_list"]
	m.AllocsPerStep = base.Sizes[0].Modes["neighbor_list"].AllocsPerStep*2 + 1000
	c.Sizes[0].Modes["neighbor_list"] = m
	fails := Gate(base, c, Default())
	if len(fails) == 0 {
		t.Fatal("doubled allocs/step passed the gate")
	}
	if !strings.Contains(strings.Join(fails, "\n"), "allocs/step") {
		t.Errorf("failures do not mention allocs: %v", fails)
	}
}

func TestGateRebuildSplitDrift(t *testing.T) {
	base := sampleBench()
	c := clone(t, base)
	m := c.Sizes[0].Modes["neighbor_list"]
	m.Rebuilds, m.Refreshes = 4, 0 // skin reuse broke: rebuilding every step
	c.Sizes[0].Modes["neighbor_list"] = m
	if fails := Gate(base, c, Default()); len(fails) == 0 {
		t.Fatal("rebuild-every-step drift passed the gate")
	}
	// With differing step counts the absolute counts are incomparable and
	// the interval check takes over.
	c2 := clone(t, base)
	c2.Sizes[0].Steps = 8
	m2 := c2.Sizes[0].Modes["neighbor_list"]
	m2.Rebuilds, m2.Refreshes, m2.RebuildIntervalSteps = 2, 6, 4
	c2.Sizes[0].Modes["neighbor_list"] = m2
	if fails := Gate(base, c2, Default()); len(fails) != 0 {
		t.Errorf("same interval at different step count failed: %v", fails)
	}
}

func TestGateMissingSizeAndMode(t *testing.T) {
	base := sampleBench()
	c := clone(t, base)
	c.Sizes[0].NSide = 999
	if fails := Gate(base, c, Default()); len(fails) == 0 {
		t.Error("missing size passed the gate")
	}
	c2 := clone(t, base)
	delete(c2.Sizes[0].Modes, "neighbor_list")
	if fails := Gate(base, c2, Default()); len(fails) == 0 {
		t.Error("missing mode passed the gate")
	}
}

func TestGateSpeedupFloor(t *testing.T) {
	base := sampleBench()
	c := clone(t, base)
	c.Sizes[0].SpeedupTotal = base.Sizes[0].SpeedupTotal * 0.3
	fails := Gate(base, c, Default())
	if len(fails) == 0 {
		t.Fatal("collapsed speedup_total passed the gate")
	}
	if !strings.Contains(strings.Join(fails, "\n"), "speedup_total") {
		t.Errorf("failures do not mention speedup_total: %v", fails)
	}
}

func TestGateParallelEfficiencyFloor(t *testing.T) {
	base := sampleBench()
	degrade := func(o *benchfmt.Output) {
		pt := &o.Sizes[0].Sweep[1] // the 4-proc point
		for _, pass := range benchfmt.FoldedPasses {
			pt.NsPerParticleStep[pass] *= 2 // efficiency ~0.39, below the 0.65 floor
		}
	}
	c := clone(t, base)
	degrade(c)
	fails := Gate(base, c, Default())
	if len(fails) == 0 {
		t.Fatal("collapsed 4-proc efficiency passed the gate")
	}
	if !strings.Contains(strings.Join(fails, "\n"), "parallel efficiency") {
		t.Errorf("failures do not mention parallel efficiency: %v", fails)
	}
	// On a machine without enough CPUs the sweep measures oversubscription,
	// not scaling — the check must skip, not fail.
	c2 := clone(t, base)
	degrade(c2)
	c2.NumCPU = 1
	for _, f := range Gate(base, c2, Default()) {
		if strings.Contains(f, "parallel efficiency") {
			t.Errorf("efficiency floor asserted on a 1-CPU machine: %s", f)
		}
	}
	// Without a sweep (plain smoke runs) the check also skips.
	c3 := clone(t, base)
	c3.Sizes[0].Sweep = nil
	for _, f := range Gate(base, c3, Default()) {
		if strings.Contains(f, "parallel efficiency") {
			t.Errorf("efficiency floor asserted without a sweep: %s", f)
		}
	}
}

// TestRunEndToEnd drives the real CLI: identical files pass twice in a row,
// a slowed pass fails with exit 1, bad input exits 2.
func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	base := sampleBench()
	if err := base.WriteFile(basePath); err != nil {
		t.Fatal(err)
	}
	freshPath := filepath.Join(dir, "fresh.json")
	if err := clone(t, base).WriteFile(freshPath); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 2; i++ { // acceptance: run twice on identical benches
		var out strings.Builder
		if code := run([]string{"-baseline", basePath, freshPath}, &out); code != 0 {
			t.Fatalf("run %d: identical benches exit %d:\n%s", i, code, out.String())
		}
		if !strings.Contains(out.String(), "OK") {
			t.Errorf("run %d output: %s", i, out.String())
		}
	}

	slowPath := filepath.Join(dir, "slow.json")
	if err := inflate(t, base, "iad", 3).WriteFile(slowPath); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := run([]string{"-baseline", basePath, slowPath}, &out); code != 1 {
		t.Fatalf("slowed bench exit %d, want 1:\n%s", code, out.String())
	}
	for _, want := range []string{"FAIL", "iad", "refresh the baseline"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("failure output missing %q:\n%s", want, out.String())
		}
	}

	if code := run([]string{"-baseline", basePath}, &out); code != 2 {
		t.Errorf("no fresh arg exit %d, want 2", code)
	}
	if code := run([]string{"-baseline", filepath.Join(dir, "nope.json"), freshPath}, &out); code != 1 {
		t.Errorf("missing baseline exit %d, want 1", code)
	}
}
