package tuner

import (
	"testing"

	"sphenergy/internal/events"
	"sphenergy/internal/gpusim"
)

// TestTuneKernelRecordsSweepEvents checks the ledger's record of a sweep:
// one tuner-measure event per candidate clock carrying its measurement, and
// one tuner-select event naming the winner.
func TestTuneKernelRecordsSweepEvents(t *testing.T) {
	led := events.NewLedger(0)
	spec := gpusim.A100SXM480GB()
	kernel := gpusim.KernelDesc{Items: 10e6, FlopsPerItem: 2000, BytesPerItem: 400, EffFactor: 0.5}
	res, err := TuneKernel("iad", kernel, Config{
		Spec:   spec,
		Params: Params{MinMHz: 1380, MaxMHz: 1410},
		Events: led,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 3 {
		t.Errorf("evaluations = %d, want 3", res.Evaluations)
	}
	measured := map[int]Measurement{}
	for _, m := range res.All {
		measured[m.MHz] = m
	}
	var selects int
	for _, ev := range led.Events() {
		if ev.Subject != "iad" {
			t.Errorf("event about %q, want iad: %+v", ev.Subject, ev)
		}
		switch ev.Type {
		case events.TunerMeasure:
			m, ok := measured[ev.AppliedMHz]
			if !ok {
				t.Errorf("measure event at %d MHz, outside the sweep", ev.AppliedMHz)
				continue
			}
			delete(measured, ev.AppliedMHz)
			if ev.PredTimeS != m.TimeS || ev.PredEnergyJ != m.EnergyJ || ev.Value != m.Score {
				t.Errorf("measure event %+v does not carry %+v", ev, m)
			}
		case events.TunerSelect:
			selects++
			if ev.AppliedMHz != res.Best.MHz || ev.Value != res.Best.Score {
				t.Errorf("select event %+v, want best %+v", ev, res.Best)
			}
		default:
			t.Errorf("unexpected event type %s", ev.Type)
		}
	}
	if len(measured) != 0 {
		t.Errorf("candidates without a measure event: %v", measured)
	}
	if selects != 1 {
		t.Errorf("%d select events, want 1", selects)
	}
}
