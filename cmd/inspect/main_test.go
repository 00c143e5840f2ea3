package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sphenergy"
	"sphenergy/internal/instr"
	"sphenergy/internal/telemetry"
	"sphenergy/internal/traceanalysis"
)

// writeStragglerTrace writes a bundle holding only a 3-rank trace whose
// rank 2 imposes every barrier, through the real telemetry JSON writer, and
// returns the bundle's directory.
func writeStragglerTrace(t *testing.T) string {
	t.Helper()
	tr := telemetry.NewTracer(3)
	for r := 0; r < 3; r++ {
		tr.SetTrackName(r, "rank x")
	}
	tr.SetTrackName(telemetry.GlobalTrack, "sim")
	tm := 0.0
	for phase := 0; phase < 3; phase++ {
		durs := []float64{1.0, 1.1, 2.0}
		barrier := tm + 2.0
		for r, d := range durs {
			tr.RecordSpan(r, "kernel", "work", tm, d)
			if wait := barrier - (tm + d); wait > 0 {
				tr.RecordSpan(r, "mpi", "barrier-wait", tm+d, wait)
			}
		}
		tm = barrier
	}
	dir := t.TempDir()
	if err := sphenergy.WriteBundle(dir, sphenergy.Config{Tracer: tr}, nil); err != nil {
		t.Fatal(err)
	}
	return dir
}

func runInspect(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestTraceText(t *testing.T) {
	dir := writeStragglerTrace(t)
	out, stderr, code := runInspect(t, "trace", dir)
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr)
	}
	for _, want := range []string{"3 barriers", "rank 2", "100.0% attributed"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTraceJSON(t *testing.T) {
	dir := writeStragglerTrace(t)
	// Flags go on either side of the bundle directory.
	for _, args := range [][]string{{"trace", "-json", "-top", "1", dir}, {"trace", dir, "-json", "-top", "1"}} {
		out, stderr, code := runInspect(t, args...)
		if code != 0 {
			t.Fatalf("%v: exit code %d: %s", args, code, stderr)
		}
		var a traceanalysis.Analysis
		if err := json.Unmarshal([]byte(out), &a); err != nil {
			t.Fatalf("%v: invalid JSON: %v\n%s", args, err, out)
		}
		if len(a.Stragglers) != 1 || a.Stragglers[0].Rank != 2 {
			t.Errorf("%v: stragglers = %+v, want rank 2 only", args, a.Stragglers)
		}
		if a.AttributedWaitS < a.TotalWaitS-1e-9 {
			t.Errorf("%v: attribution %g < total %g", args, a.AttributedWaitS, a.TotalWaitS)
		}
	}
}

// TestTraceTruncatedSaysSo cuts the trace mid-event: inspect trace
// refuses the cut file, exit 1 and nothing on stdout, with an error that
// names it, in both renderings.
func TestTraceTruncatedSaysSo(t *testing.T) {
	dir := writeStragglerTrace(t)
	whole, err := os.ReadFile(filepath.Join(dir, sphenergy.BundleTrace))
	if err != nil {
		t.Fatal(err)
	}
	cut := t.TempDir()
	path := filepath.Join(cut, sphenergy.BundleTrace)
	if err := os.WriteFile(path, whole[:len(whole)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"trace", cut}, {"trace", "-json", cut}} {
		out, stderr, code := runInspect(t, args...)
		if code != 1 || out != "" {
			t.Errorf("%q: exit %d, stdout %q; want 1 and nothing", args, code, out)
		}
		if !strings.Contains(stderr, path+":") {
			t.Errorf("%q: stderr %q does not name %s", args, stderr, path)
		}
	}
}

func TestTraceBadInput(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing")
	for _, c := range []struct {
		args []string
		code int
	}{
		{[]string{"trace", missing}, 1},
		{nil, 2},
		{[]string{"trace"}, 2},
		{[]string{"trace", missing, missing}, 2},
		{[]string{"replay", missing}, 2},
	} {
		if _, _, code := runInspect(t, c.args...); code != c.code {
			t.Errorf("%q: exit %d, want %d", c.args, code, c.code)
		}
	}
}

// A flag value the verb would misread — a -top below 1, which the analysis
// would take for its default, a -threshold that is NaN or negative, which
// would flag nothing or everything — exits 2 naming the flag, before the
// bundle is read; the smallest values it takes reach the bundle.
func TestFlagValuesRefused(t *testing.T) {
	empty := t.TempDir()
	for _, c := range []struct {
		args []string
		flag string // the flag the refusal names; "" for a value taken
	}{
		{[]string{"trace", "-top", "0", empty}, "-top"},
		{[]string{"trace", empty, "-top", "-2"}, "-top"},
		{[]string{"decisions", "-threshold", "NaN", empty}, "-threshold"},
		{[]string{"decisions", empty, "-threshold", "-5"}, "-threshold"},
		{[]string{"trace", "-top", "1", empty}, ""},
		{[]string{"decisions", "-threshold", "0", empty}, ""},
	} {
		out, errOut, code := runInspect(t, c.args...)
		want := 1 // the empty bundle
		if c.flag != "" {
			want = 2
		}
		if code != want || out != "" {
			t.Errorf("%q: exit %d, stdout %q; want %d and nothing", c.args, code, out, want)
		}
		if c.flag != "" && !strings.Contains(errOut, c.flag+" ") {
			t.Errorf("%q: stderr %q does not name %s", c.args, errOut, c.flag)
		}
	}
}

// writeReport writes a bundle holding only rep and returns its directory.
func writeReport(t *testing.T, rep *instr.Report) string {
	t.Helper()
	dir := t.TempDir()
	if err := sphenergy.WriteBundle(dir, sphenergy.Config{}, rep); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestEnergyAllZeroReport holds the rank-spread guard: a report whose ranks
// all read 0 J says so instead of dividing by zero.
func TestEnergyAllZeroReport(t *testing.T) {
	rep := &instr.Report{Simulation: "turbulence", System: "minihpc", Strategy: "baseline",
		Ranks: []*instr.RankProfile{instr.NewRankProfile(0), instr.NewRankProfile(1)}}
	out, stderr, code := runInspect(t, "energy", writeReport(t, rep))
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr)
	}
	if !strings.Contains(out, "per-rank GPU energy spread: all ranks 0 J\n") {
		t.Errorf("output lacks the all-zero spread line:\n%s", out)
	}
	if strings.Contains(out, "NaN") {
		t.Errorf("output divides by zero:\n%s", out)
	}
}

// TestEnergyBaselineRow checks -baseline's normalized row against ratios
// worked by hand: 80 s and 60 J against 100 s and 100 J.
func TestEnergyBaselineRow(t *testing.T) {
	rank := instr.NewRankProfile(0)
	rank.RecordAt(0, "MomentumEnergy", 1, 1, 0, 0, 0, 0)
	base := writeReport(t, &instr.Report{Simulation: "turbulence", System: "minihpc", Strategy: "baseline",
		Ranks: []*instr.RankProfile{rank}, WallTimeS: 100, TotalEnergyJ: 100})
	run := writeReport(t, &instr.Report{Simulation: "turbulence", System: "minihpc", Strategy: "static:1005",
		Ranks: []*instr.RankProfile{rank}, WallTimeS: 80, TotalEnergyJ: 60})
	out, stderr, code := runInspect(t, "energy", run, "-baseline", base)
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, stderr)
	}
	want := "\nnormalized to baseline (" + base + ")\n" +
		"configuration          time     energy        EDP\n" +
		"static:1005          0.8000     0.6000     0.4800\n"
	if !strings.HasSuffix(out, want) {
		t.Errorf("output ends\n%s\nwant it to end\n%s", out[max(0, len(out)-len(want)):], want)
	}
}

// TestSignalFlushedBundle reads the bundle a run stopped by a signal
// leaves: trace and ledger, no report. energy has nothing to read
// and says which file is missing; decisions still audits the ledger and
// points at the flag that would have given it the achieved side.
func TestSignalFlushedBundle(t *testing.T) {
	spec := sphenergy.MiniHPC()
	led := sphenergy.NewEventLedger(0)
	table, err := sphenergy.TuneFrequenciesObserved(spec, sphenergy.Turbulence, 10e6, 150, led)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sphenergy.Config{System: spec, Ranks: 2, Sim: sphenergy.Turbulence, ParticlesPerRank: 10e6,
		Steps: 3, Tracer: sphenergy.NewTracer(2), Events: led,
		NewStrategy: sphenergy.ManDyn(table)}
	if _, err := sphenergy.Run(cfg); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sphenergy.WriteBundle(dir, cfg, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, sphenergy.BundleReport)); !os.IsNotExist(err) {
		t.Errorf("%s written without a report: %v", sphenergy.BundleReport, err)
	}

	out, stderr, code := runInspect(t, "energy", dir)
	if code != 1 || out != "" {
		t.Errorf("energy: exit %d, stdout %q; want 1 and nothing", code, out)
	}
	if !strings.Contains(stderr, sphenergy.BundleReport+": no such file") {
		t.Errorf("energy: stderr %q does not name the missing report", stderr)
	}

	out, stderr, code = runInspect(t, "decisions", dir)
	if code != 0 {
		t.Fatalf("decisions: exit %d: %s", code, stderr)
	}
	if !strings.Contains(out, "no attribution join") || !strings.Contains(out, "-sample-hz") {
		t.Errorf("decisions: no hint naming -sample-hz:\n%s", out)
	}
	if strings.Contains(out, "-report") {
		t.Errorf("decisions: hint names a flag sphexa does not have:\n%s", out)
	}
	if _, _, code := runInspect(t, "trace", dir); code != 0 {
		t.Errorf("trace: exit %d", code)
	}
}
