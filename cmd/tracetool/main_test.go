package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sphenergy/internal/telemetry"
	"sphenergy/internal/traceanalysis"
)

// writeStragglerTrace exports a 3-rank trace whose rank 2 imposes every
// barrier, through the real telemetry JSON writer.
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
			tr.Complete(r, "kernel", "work", tm, d)
			if wait := barrier - (tm + d); wait > 0 {
				tr.Complete(r, "mpi", "barrier-wait", tm+d, wait)
			}
		}
		tm = barrier
	}
	path := filepath.Join(t.TempDir(), "run.trace.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func runTool(t *testing.T, args ...string) (string, int) {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "out")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	code := run(args, tmp)
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data), code
}

func TestTracetoolText(t *testing.T) {
	path := writeStragglerTrace(t)
	out, code := runTool(t, path)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	for _, want := range []string{"3 barriers", "rank 2", "100.0% attributed"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestTracetoolJSON(t *testing.T) {
	path := writeStragglerTrace(t)
	out, code := runTool(t, "-json", "-top", "1", path)
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	var a traceanalysis.Analysis
	if err := json.Unmarshal([]byte(out), &a); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	if len(a.Stragglers) != 1 || a.Stragglers[0].Rank != 2 {
		t.Errorf("stragglers = %+v, want rank 2 only", a.Stragglers)
	}
	if a.AttributedWaitS < a.TotalWaitS-1e-9 {
		t.Errorf("attribution %g < total %g", a.AttributedWaitS, a.TotalWaitS)
	}
}

// TestTracetoolTruncatedTraceSaysSo cuts the trace mid-event: both
// renderings of the analysis, not only stderr, say it covers a prefix — and
// neither says so of the whole file.
func TestTracetoolTruncatedTraceSaysSo(t *testing.T) {
	path := writeStragglerTrace(t)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.trace.json")
	if err := os.WriteFile(cut, whole[:len(whole)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	for file, want := range map[string]bool{path: false, cut: true} {
		text, code := runTool(t, file)
		if code != 0 {
			t.Fatalf("%s: exit code %d", file, code)
		}
		if got := strings.Contains(text, "truncated trace"); got != want {
			t.Errorf("%s: text report mentions truncation: %v, want %v\n%s", file, got, want, text)
		}
		out, _ := runTool(t, "-json", file)
		var a traceanalysis.Analysis
		if err := json.Unmarshal([]byte(out), &a); err != nil {
			t.Fatalf("%s: invalid JSON: %v", file, err)
		}
		if a.Truncated != want || strings.Contains(out, `"truncated"`) != want {
			t.Errorf("%s: JSON analysis has truncated=%v, want %v", file, a.Truncated, want)
		}
	}
}

func TestTracetoolBadInput(t *testing.T) {
	if _, code := runTool(t, filepath.Join(t.TempDir(), "missing.json")); code != 1 {
		t.Errorf("missing file exit = %d, want 1", code)
	}
	if _, code := runTool(t); code != 2 {
		t.Errorf("no-args exit = %d, want 2", code)
	}
}
