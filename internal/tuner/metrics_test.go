package tuner

import (
	"testing"

	"sphenergy/internal/gpusim"
	"sphenergy/internal/telemetry"
)

// findSample returns the first sample of family name in a registry snapshot
// carrying every label of kv (name, value pairs).
func findSample(snap []telemetry.MetricSnapshot, name string, kv ...string) (telemetry.SampleSnapshot, bool) {
	for _, fam := range snap {
		if fam.Name != name {
			continue
		}
	samples:
		for _, s := range fam.Samples {
			for i := 0; i+1 < len(kv); i += 2 {
				if s.Labels[kv[i]] != kv[i+1] {
					continue samples
				}
			}
			return s, true
		}
	}
	return telemetry.SampleSnapshot{}, false
}

func TestTuneKernelRecordsSweepMetrics(t *testing.T) {
	reg := telemetry.NewRegistry()
	spec := gpusim.A100SXM480GB()
	kernel := gpusim.KernelDesc{Items: 10e6, FlopsPerItem: 2000, BytesPerItem: 400, EffFactor: 0.5}
	res, err := TuneKernel("iad", kernel, Config{
		Spec:    spec,
		Params:  Params{MinMHz: 1380, MaxMHz: 1410},
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if s, ok := findSample(snap, "tuner_evaluations_total", "kernel", "iad"); !ok || s.Value != 3 {
		t.Errorf(`tuner_evaluations_total{kernel="iad"} = %+v, %v; want 3`, s, ok)
	}
	for _, want := range []struct {
		name string
		kv   []string
	}{
		{"tuner_candidate_score", []string{"kernel", "iad", "mhz", "1410"}},
		{"tuner_candidate_score", []string{"kernel", "iad", "mhz", "1380"}},
		{"tuner_candidate_time_s", []string{"kernel", "iad", "mhz", "1395"}},
		{"tuner_best_mhz", []string{"kernel", "iad"}},
	} {
		if _, ok := findSample(snap, want.name, want.kv...); !ok {
			t.Errorf("snapshot has no %s%v", want.name, want.kv)
		}
	}
	if res.Evaluations != 3 {
		t.Errorf("evaluations = %d", res.Evaluations)
	}
}

func TestTuneKernelNilRegistryIsFine(t *testing.T) {
	spec := gpusim.A100SXM480GB()
	kernel := gpusim.KernelDesc{Items: 10e6, FlopsPerItem: 2000, BytesPerItem: 400, EffFactor: 0.5}
	if _, err := TuneKernel("iad", kernel, Config{
		Spec:   spec,
		Params: Params{MinMHz: 1395, MaxMHz: 1410},
	}); err != nil {
		t.Fatal(err)
	}
}
