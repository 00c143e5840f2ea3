package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// inProcess runs a child task in the test process instead of a fresh one.
func inProcess(cfg repConfig) (repResult, error) { return runChild(cfg), nil }

func smokeHarness(t *testing.T, trace bool, spawn func(repConfig) (repResult, error)) (*harness, *benchResult) {
	t.Helper()
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{spec: spec, spawn: spawn, tmp: t.TempDir(), log: io.Discard,
		opt: options{workload: "all", seed: 42, smoke: true, trace: trace}}
	res, err := h.run()
	if err != nil {
		t.Fatal(err)
	}
	return h, res
}

// The untraced smoke run exercises all four workloads and their
// verification, and emits exactly the end-to-end metrics of BENCHMARK.json.
func TestSmokeEndToEnd(t *testing.T) {
	h, res := smokeHarness(t, false, inProcess)
	if len(res.Workloads) != 4 {
		t.Fatalf("%d workloads ran", len(res.Workloads))
	}
	for i := range res.Workloads {
		wl := &res.Workloads[i]
		if !wl.correct() || wl.OpsAttempted < 4 {
			t.Errorf("%s: attempted %d failed %d: %v", wl.Name, wl.OpsAttempted, wl.OpsFailed, wl.Failures)
		}
		line := h.driverLine(wl)
		if len(line.Metrics) != len(h.spec.EndToEnd) || !line.Correct || line.Failed != 0 {
			t.Errorf("%s: driver line %+v", wl.Name, line)
		}
		for _, m := range h.spec.EndToEnd {
			v, ok := line.Metrics[m.Name]
			if !ok || !(v.Value > 0) || math.IsInf(v.Value, 0) || v.Unit != m.Unit {
				t.Errorf("%s: end-to-end metric %s = %+v (present %v)", wl.Name, m.Name, v, ok)
			}
		}
		// verify, one repetition with its heap pre-faulted, then the
		// set-up-only children, which feed setup_s and nothing else.
		if len(wl.Exact) == 0 || len(wl.Reps) != 2+setupsPerRep[wl.Name] || !(wl.Reps[1].PrefaultS > 0) ||
			wl.Metrics["setup_s"].N != 1+setupsPerRep[wl.Name] || wl.Metrics["wall_s"].N != 1 {
			t.Errorf("%s: exact values %v, child stamps %+v, metrics %+v", wl.Name, wl.Exact, wl.Reps, wl.Metrics)
		}
		if _, err := json.Marshal(line); err != nil {
			t.Errorf("%s: %v", wl.Name, err)
		}
	}
	var out strings.Builder
	h.print(&out, res)
	for _, want := range []string{"turb30", "model_observed", "setup_s", "result_err_pct", "sim_digest", " MB "} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("printed result lacks %q", want)
		}
	}
}

// The traced smoke run must emit every per-layer name of BENCHMARK.json and
// no other, each layer by at least one workload, and write span files in
// which the passes of a step add up to the step.
func TestSmokeTraced(t *testing.T) {
	h, res := smokeHarness(t, true, inProcess)
	moved := map[string]bool{}
	for i := range res.Workloads {
		wl := &res.Workloads[i]
		if !wl.correct() {
			t.Errorf("%s: failed %d: %v", wl.Name, wl.OpsFailed, wl.Failures)
		}
		line := h.driverLine(wl)
		if len(line.Metrics) != len(h.spec.PerLayer) {
			t.Errorf("%s: %d per-layer values, BENCHMARK.json names %d", wl.Name, len(line.Metrics), len(h.spec.PerLayer))
		}
		for name, v := range wl.Layers {
			if v != 0 {
				moved[name] = true
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", wl.Name, name, v)
			}
			engineOnly := strings.HasPrefix(name, "gravity.")
			if engineOnly && wl.Name != "evrard30" && v != 0 {
				t.Errorf("%s reports %s = %v; only evrard30 has gravity", wl.Name, name, v)
			}
		}
	}
	for _, m := range h.spec.PerLayer {
		switch {
		case moved[m.Name]:
		case strings.HasPrefix(m.Name, "par.") && benchProcs() < 2:
		case strings.HasPrefix(m.Name, "sph.op_"): // three-step smoke windows have no percentiles
		case m.Name == "sph.rebuilds_overflow" || m.Name == "sampler.dropped" || m.Name == "events.dropped": // zero when healthy
		default:
			t.Errorf("no workload reported a value for per-layer metric %s", m.Name)
		}
	}

	for _, name := range []string{"turb30", "evrard30"} {
		data, err := os.ReadFile(filepath.Join(h.tmp, "benchmark-trace-"+name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(data, &tf); err != nil {
			t.Fatal(err)
		}
		self := selfNs(tf.Spans)
		steps := 0
		for i, s := range tf.Spans {
			if s.Name != "step" || s.Op < 0 {
				continue
			}
			steps++
			passes := int64(0)
			for _, c := range tf.Spans {
				if c.Parent == i {
					passes += c.EndNs - c.StartNs
				}
			}
			dur := s.EndNs - s.StartNs
			if diff := math.Abs(float64(passes + self[i] - dur)); diff > 0.005*float64(dur) {
				t.Errorf("%s step %d: passes %d + self %d != step %d ns", name, s.Op, passes, self[i], dur)
			}
		}
		if steps != smokeSteps {
			t.Errorf("%s: %d measured step spans, want %d", name, steps, smokeSteps)
		}
	}
}

// A failing verification check must end in ops_failed > 0 and an incorrect
// result. The failure is injected in benchmark code, at the seam between
// harness and children; the program under test is untouched.
func TestInjectedFailureFailsTheRun(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{modeVerify, modeRep} {
		h := &harness{spec: spec, tmp: t.TempDir(), log: io.Discard,
			opt: options{workload: "model_paper", seed: 42, smoke: true},
			spawn: func(cfg repConfig) (repResult, error) {
				r := runChild(cfg)
				if cfg.Mode == mode {
					r.fail("injected failing check")
				}
				return r, nil
			}}
		res, err := h.run()
		if err != nil {
			t.Fatal(err)
		}
		wl := &res.Workloads[0]
		if wl.correct() || wl.OpsFailed == 0 || h.driverLine(wl).Correct {
			t.Errorf("failure injected in the %s child went unnoticed: %+v", mode, wl)
		}
	}
}

// Two repetitions that disagree on an exact value are a failure.
func TestRepetitionsMustAgreeOnExactValues(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	h := &harness{spec: spec, tmp: t.TempDir(), log: io.Discard,
		opt: options{workload: "model_paper", seed: 42, smoke: true, reps: 2},
		spawn: func(cfg repConfig) (repResult, error) {
			r := runChild(cfg)
			if cfg.Mode == modeRep {
				n++
				if n == 2 {
					r.Exact["sim_digest"] = "tampered"
				}
			}
			return r, nil
		}}
	res, err := h.run()
	if err != nil {
		t.Fatal(err)
	}
	if wl := &res.Workloads[0]; wl.correct() || !strings.Contains(strings.Join(wl.Failures, "\n"), "sim_digest differs") {
		t.Errorf("disagreeing digests went unnoticed: %+v", wl.Failures)
	}
}

// The timings are the median of the whole-window figures of the
// repetitions: a cost that lands on different ops in different repetitions,
// as a collection does, stays in.
func TestEndToEndIsTheMedianOverRepetitions(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{spec: spec}
	reps := []repResult{{SetupS: 0.5, WallS: 0.4, CPUS: 0.7}, {SetupS: 0.1, WallS: 1.2, CPUS: 2.1}, {SetupS: 0.3, WallS: 1.0, CPUS: 1.9}}
	m := h.endToEnd(reps, nil)
	if w, c := m["wall_s"], m["cpu_s"]; !near(w.Value, 1.0) || !near(c.Value, 1.9) || w.N != 3 || !near(w.Min, 0.4) || !near(w.Max, 1.2) {
		t.Errorf("wall_s %+v cpu_s %+v; want the medians 1.0 and 1.9 over 3 samples", w, c)
	}
	// The set-up-only children add samples to setup_s, scaled like the rest,
	// and to nothing else.
	m = h.endToEnd(reps, []repResult{{SetupS: 0.2}, {SetupS: 0.4, Slowdown: 2}})
	if s, w := m["setup_s"], m["wall_s"]; s.N != 5 || !near(s.Value, 0.2) || w.N != 3 || !near(w.Value, 1.0) {
		t.Errorf("setup_s %+v wall_s %+v; want the median 0.2 over 5 samples and wall_s as before", s, w)
	}
}

// A repetition's timings are divided by its host slowdown before the median
// is taken, and nothing else is; the engine workloads take it from the gather
// probe, the model workloads from the ALU sampler.
func TestTimingsAreScaledByTheHostSlowdown(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{spec: spec}
	m := h.endToEnd([]repResult{
		{SetupS: 3, WallS: 12, CPUS: 18, LiveHeapMB: 7, ResultErrPct: 0.5, Slowdown: 1.5},
		{SetupS: 2, WallS: 8, CPUS: 12, LiveHeapMB: 7, ResultErrPct: 0.5, Slowdown: 1},
		{SetupS: 4, WallS: 16, CPUS: 24, LiveHeapMB: 7, ResultErrPct: 0.5, Slowdown: 2},
	}, nil)
	for name, want := range map[string]float64{"setup_s": 2, "wall_s": 8, "cpu_s": 12, "live_heap_mb": 7, "result_err_pct": 0.5} {
		if got := m[name]; !near(got.Value, want) || !near(got.Min, want) || !near(got.Max, want) {
			t.Errorf("%s = %+v, want %g in every repetition", name, got, want)
		}
	}

	var none *probe
	none.run()
	if s := none.slowdown(); s != 1 {
		t.Errorf("no probe reads a slowdown of %g, want 1", s)
	}
	p := newProbe(2)
	p.run()
	p.run()
	if s := p.slowdown(); p.runs != 2 || !(s > 0) || !near(s, p.totalMs/2/probeNominalMs) {
		t.Errorf("two probe runs: runs %d, total %g ms, slowdown %g", p.runs, p.totalMs, s)
	}
	alu := startALUSampler()
	time.Sleep(3 * aluEvery)
	s := alu.slowdown() // returns once the goroutine has ended
	if n := len(alu.ms); n < 3 || !near(s, median(alu.ms)/aluNominalMs) || !(s > 0) {
		t.Errorf("ALU sampler: %d bursts in %v, slowdown %g", n, 3*aluEvery, s)
	}
	if s := burstSlowdown(3); !(s > 0) {
		t.Errorf("three bursts back to back read a slowdown of %g", s)
	}
	for _, wl := range []string{"turb30", "evrard30", "model_paper", "model_observed"} {
		w, err := newWorkload(repConfig{Workload: wl}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := w.probed(), !strings.HasPrefix(wl, "model_"); got != want {
			t.Errorf("%s probed: %v", wl, got)
		}
	}
}

// A timed child pre-faults its heap before set-up, reports what that took and
// keeps it out of setup_s; every workload has a size for it.
func TestPrefaultIsTimedApart(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range spec.workloadNames() {
		if prefaultMB[wl] <= 0 {
			t.Errorf("%s has no prefault size", wl)
		}
	}
	if s := prefault(smokePrefaultMB); !(s > 0) {
		t.Errorf("prefault took %g s", s)
	}
	spawned := time.Now()
	time.Sleep(20 * time.Millisecond)
	r := runChild(repConfig{Workload: "model_paper", Mode: modeRep, Smoke: true, TmpDir: t.TempDir(), SpawnedNs: spawned.UnixNano()})
	total := time.Since(spawned).Seconds()
	if len(r.Failures) > 0 || !(r.PrefaultS > 0) || !(r.SetupS >= 0.02) || r.SetupS+r.PrefaultS+r.WallS > total {
		t.Errorf("prefault %g s, setup %g s, wall %g s of %g s in all: %v", r.PrefaultS, r.SetupS, r.WallS, total, r.Failures)
	}
}

// The repetition count depends on the flags alone, never on what was
// measured, so two result files of one commit have the same n.
func TestRepsFor(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{opt: options{seconds: 16}}
	for _, name := range spec.workloadNames() {
		if !(nominalRepS[name] > 0) {
			t.Fatalf("%s has no nominal window", name)
		}
	}
	if a, b := h.repsFor("turb30"), h.repsFor("model_paper"); a != 3 || b != 3 {
		t.Errorf("16 s: %d repetitions of turb30 and %d of model_paper, want 3 and 3", a, b)
	}
	h.opt.seconds = 30
	if a, b := h.repsFor("turb30"), h.repsFor("model_paper"); a != 5 || b != 6 {
		t.Errorf("30 s: %d repetitions of turb30 and %d of model_paper, want 5 and 6", a, b)
	}
	h.opt.seconds = 1
	if k := h.repsFor("turb30"); k != minReps {
		t.Errorf("%d repetitions for one second, want the minimum %d", k, minReps)
	}
	h.opt.reps = 2
	if k := h.repsFor("turb30"); k != 2 {
		t.Errorf("-reps 2 gave %d", k)
	}
	h.opt = options{smoke: true}
	if k := h.repsFor("turb30"); k != smokeReps {
		t.Errorf("-smoke gave %d repetitions", k)
	}
}

// A non-finite value must come back as a recorded failure, not kill the
// child while it encodes its result.
func TestNonFiniteValuesBecomeFailures(t *testing.T) {
	r := repResult{WallS: math.Inf(1), ResultErrPct: math.NaN(), OpMs: []float64{1, math.NaN()},
		Layers: map[string]float64{"host.cpu_util": math.NaN(), "sph.xmass_ms": 2}}
	r.sanitize()
	if _, err := json.Marshal(r); err != nil {
		t.Fatalf("still not encodable: %v", err)
	}
	all := strings.Join(r.Failures, "\n")
	for _, want := range []string{"wall_s = +Inf", "result_err_pct = NaN", "op_ms[1] = NaN", "host.cpu_util = NaN"} {
		if !strings.Contains(all, want) {
			t.Errorf("failures lack %q: %v", want, r.Failures)
		}
	}
	if len(r.Failures) != 4 || r.Layers["sph.xmass_ms"] != 2 || r.OpMs[0] != 1 {
		t.Errorf("finite values were touched: %+v", r)
	}

	// End to end: a workload that produces NaN fails the run instead of
	// vanishing as "child: exit status 1".
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{spec: spec, tmp: t.TempDir(), log: io.Discard,
		opt: options{workload: "model_paper", seed: 42, smoke: true},
		spawn: func(cfg repConfig) (repResult, error) {
			r := runChild(cfg)
			if cfg.Mode == modeRep {
				r.ResultErrPct = math.NaN()
				r.sanitize()
			}
			return r, nil
		}}
	res, err := h.run()
	if err != nil {
		t.Fatal(err)
	}
	wl := &res.Workloads[0]
	if wl.correct() || !strings.Contains(strings.Join(wl.Failures, "\n"), "result_err_pct = NaN") {
		t.Errorf("a NaN result went unnoticed: %+v", wl.Failures)
	}
	if _, err := json.Marshal(h.driverLine(wl)); err != nil {
		t.Errorf("driver line: %v", err)
	}
}
