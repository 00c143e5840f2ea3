package tuner

import (
	"bytes"
	"runtime"
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
	for _, ev := range ledgerEvents(t, led) {
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

// TestSweepLedgerIndependentOfWidth: a sweep's ledger rows are its
// candidates in order, so the ledger of a sweep at GOMAXPROCS 4 equals the
// serial sweep's byte for byte, on every one of three tries. The cache
// already holds the upper half of the range, so the second sweep's rows
// mix cached and fresh measurements.
func TestSweepLedgerIndependentOfWidth(t *testing.T) {
	spec := gpusim.A100SXM480GB()
	kernel := gpusim.KernelDesc{Items: 10e6, FlopsPerItem: 2000, BytesPerItem: 400, EffFactor: 0.5}
	sweep := func(procs int) []byte {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		cache, led := NewCache(), events.NewLedger(0)
		for _, p := range []Params{{MinMHz: 810}, {}} {
			if _, err := TuneKernel("iad", kernel, Config{Spec: spec, Params: p, Cache: cache, Events: led}); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := led.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := sweep(1)
	for rep := 0; rep < 3; rep++ {
		if got := sweep(4); !bytes.Equal(got, want) {
			t.Fatalf("the sweep's ledger at GOMAXPROCS 4 differs from the serial one's:\n got: %.300s...\nwant: %.300s...", got, want)
		}
	}
}

// ledgerEvents reads the ledger back as inspect does: its JSONL export,
// parsed.
func ledgerEvents(t testing.TB, led *events.Ledger) []events.Event {
	t.Helper()
	var file bytes.Buffer
	if err := led.WriteJSONL(&file); err != nil {
		t.Fatal(err)
	}
	evs, truncated, err := events.ReadJSONL(&file)
	if err != nil || truncated {
		t.Fatalf("ledger read back: truncated %v, err %v", truncated, err)
	}
	return evs
}
