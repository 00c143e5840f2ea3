package tuner

import (
	"runtime"
	"testing"

	"sphenergy/internal/gpusim"
)

// TestBruteForceConcurrentMatchesSerial pins the determinism contract of
// the concurrent sweep: a run under real parallelism must be bit-identical
// to the single-worker run, each measurement landing at its candidate's
// index.
func TestBruteForceConcurrentMatchesSerial(t *testing.T) {
	k := computeBound()
	cfg := Config{
		Spec:   gpusim.A100PCIE40GB(),
		Params: Params{MinMHz: 1005, MaxMHz: 1410},
	}

	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	conc, err := TuneKernel("mom", k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(1)
	serial, err := TuneKernel("mom", k, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(conc.All) != len(serial.All) {
		t.Fatalf("evaluated %d configs concurrently vs %d serially", len(conc.All), len(serial.All))
	}
	for i := range conc.All {
		if conc.All[i] != serial.All[i] {
			t.Errorf("candidate %d differs: concurrent %+v serial %+v", i, conc.All[i], serial.All[i])
		}
	}
	if conc.Best != serial.Best {
		t.Errorf("best differs: concurrent %+v serial %+v", conc.Best, serial.Best)
	}
	if conc.Evaluations != serial.Evaluations {
		t.Errorf("evaluation counts differ: %d vs %d", conc.Evaluations, serial.Evaluations)
	}
}
