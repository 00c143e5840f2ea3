package telemetry

import (
	"os"
	"path/filepath"
	"testing"
)

func TestProfilerWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	heap := filepath.Join(dir, "heap.pprof")
	p, err := StartProfiler(cpu, heap)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something to sample.
	x := 0.0
	DoLabeled(true, "pass", "momentum_energy", func() {
		for i := 0; i < 1e6; i++ {
			x += float64(i) * 1e-9
		}
	})
	_ = x
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpu, heap} {
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile %s not written: %v", path, err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", path)
		}
	}
	// Idempotent close, nil safety.
	if err := p.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	var np *Profiler
	if err := np.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

func TestDoLabeledDisabledRunsFn(t *testing.T) {
	ran := false
	DoLabeled(false, "pass", "x", func() { ran = true })
	if !ran {
		t.Error("disabled DoLabeled skipped fn")
	}
}
