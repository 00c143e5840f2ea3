package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func metricOf(unit string, samples ...float64) metricResult {
	s := summarize(samples)
	return metricResult{Value: s.Median, Unit: unit, summary: s, Samples: samples}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name string
		spec metricSpec
		a, b metricResult
		want string
	}{
		{"same", lower, metricOf("s", 10, 10.1, 10.2), metricOf("s", 10.1, 10.2, 10.3), verdictOK},
		{"within bound", lower, metricOf("s", 10, 10.1, 10.2), metricOf("s", 10.8, 10.9, 11), verdictOK},
		{"beyond bound", lower, metricOf("s", 10, 10.1, 10.2), metricOf("s", 11.8, 11.9, 12), verdictRegressed},
		{"faster", lower, metricOf("s", 10, 10.1, 10.2), metricOf("s", 5, 5.1, 5.2), verdictOK},
		{"wide and overlapping", lower, metricOf("s", 8, 10, 14), metricOf("s", 9, 12, 15), verdictUnresolved},
		{"wide, every run worse", lower, metricOf("s", 8, 10, 12), metricOf("s", 13, 16, 20), verdictRegressed},
		{"wide, every run better", lower, metricOf("s", 8, 10, 12), metricOf("s", 4, 5, 7), verdictOK},
		{"higher is better: dropped", higher, metricOf("1/s", 100, 101, 102), metricOf("1/s", 80, 81, 82), verdictRegressed},
		{"higher is better: rose", higher, metricOf("1/s", 100, 101, 102), metricOf("1/s", 120, 121, 122), verdictOK},
	} {
		if _, got := judge(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	worse, _ := judge(lower, metricOf("s", 10, 10, 10), metricOf("s", 12, 12, 12))
	if !near(worse, 0.2) {
		t.Errorf("worse = %v, want 0.2 of the base", worse)
	}

	// The bound is max(relative, absolute floor): a set-up of milliseconds
	// may double, one of seconds may not.
	setup := metricSpec{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.10}
	if _, got := judge(setup, metricOf("s", 0.003, 0.0035, 0.004), metricOf("s", 0.006, 0.007, 0.008)); got != verdictOK {
		t.Errorf("3.5 ms -> 7 ms of set-up: %s, want ok inside the %g s floor", got, absFloor["setup_s"])
	}
	if _, got := judge(setup, metricOf("s", 1.0, 1.01, 1.02), metricOf("s", 1.2, 1.21, 1.22)); got != verdictRegressed {
		t.Errorf("1.01 s -> 1.21 s of set-up: %s, want regressed", got)
	}
}

func resultWith(wall metricResult, attempted, failed int) *benchResult {
	return &benchResult{Schema: resultSchema, Seed: 42, Env: envStamp{GitRev: "abc"},
		Workloads: []workloadResult{{Name: "turb30", OpsAttempted: attempted, OpsFailed: failed,
			Metrics: map[string]metricResult{"wall_s": wall},
			Exact:   map[string]string{"sph.rebuilds": "14"},
			Reps:    []repStamp{{Mode: modeRep, StartUnixS: 1.5, Loadavg: 0.25}}}}}
}

func TestCompareReportsRegressionsAndFailedOps(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	base := resultWith(metricOf("s", 10, 10.1, 10.2), 100, 0)

	var out bytes.Buffer
	if compare(&out, spec, base, resultWith(metricOf("s", 10.1, 10.2, 10.3), 100, 0)) {
		t.Errorf("an A/A pair regressed:\n%s", out.String())
	}
	for _, want := range []string{"turb30", "wall_s", "ok", "of 10.1", "ops_failed 0 of 100"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if !compare(&out, spec, base, resultWith(metricOf("s", 15, 15.1, 15.2), 100, 0)) || !strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("a 50%% slower wall_s did not regress:\n%s", out.String())
	}
	out.Reset()
	if !compare(&out, spec, base, resultWith(metricOf("s", 10, 10.1, 10.2), 100, 1)) {
		t.Errorf("a higher share of failed ops did not regress:\n%s", out.String())
	}
	out.Reset()
	changed := resultWith(metricOf("s", 10, 10.1, 10.2), 100, 0)
	changed.Workloads[0].Exact["sph.rebuilds"] = "12"
	compare(&out, spec, base, changed)
	if !strings.Contains(out.String(), "exact sph.rebuilds changed: 14 -> 12") {
		t.Errorf("a changed exact value went unreported:\n%s", out.String())
	}
	out.Reset()
	if !compare(&out, spec, base, &benchResult{Schema: resultSchema}) {
		t.Error("a candidate lacking the workload did not regress")
	}
	out.Reset()
	empty := resultWith(metricOf("s", 10, 10.1, 10.2), 100, 0)
	empty.Workloads[0].Metrics = nil
	if !compare(&out, spec, base, empty) || !strings.Contains(out.String(), "missing from the candidate") {
		t.Errorf("a candidate lacking a metric the base has did not regress:\n%s", out.String())
	}
}

func TestCheckComparable(t *testing.T) {
	base := resultWith(metricOf("s", 10, 10.1, 10.2), 100, 0)
	if err := checkComparable(base, resultWith(metricOf("s", 10, 10.1, 10.2), 100, 0)); err != nil {
		t.Errorf("an A/A pair refused: %v", err)
	}
	for name, change := range map[string]func(*benchResult){
		"seed":   func(r *benchResult) { r.Seed = 43 },
		"smoke":  func(r *benchResult) { r.Smoke = true },
		"traced": func(r *benchResult) { r.Trace = true },
	} {
		other := resultWith(metricOf("s", 10, 10.1, 10.2), 100, 0)
		change(other)
		if checkComparable(base, other) == nil || checkComparable(other, base) == nil {
			t.Errorf("files that differ in %s were accepted", name)
		}
	}
	traced := resultWith(metricOf("s", 10, 10.1, 10.2), 100, 0)
	traced.Trace = true
	if checkComparable(traced, traced) == nil {
		t.Error("two traced files were accepted")
	}
}

func TestResultJSONRoundTrip(t *testing.T) {
	res := resultWith(metricOf("s", 10, 10.1, 10.2), 100, 1)
	res.Workloads[0].Failures = []string{"rep: op 3: dt = NaN"}
	res.Workloads[0].OpTimes = &opTimes{P50Ms: 140.25, TailMs: 300.5, TailPercentile: 92, N: 120}
	res.Workloads[0].Layers = map[string]float64{"sph.xmass_ms": 12.25}
	var buf bytes.Buffer
	if err := res.write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := readResult(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Errorf("round trip changed the result:\n%+v\n%+v", res, back)
	}
	if _, err := readResult(strings.NewReader(`{"schema":"other/9"}`)); err == nil {
		t.Error("a foreign schema was accepted")
	}
}
