package events

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestLedgerSequenceAndRing(t *testing.T) {
	l := NewLedger(4)
	for i := 0; i < 10; i++ {
		l.Emit(Event{Type: StepDone, Step: i})
	}
	evs := l.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Errorf("event %d seq = %d, want %d", i, ev.Seq, want)
		}
	}
	sum := l.Summary()
	if sum.Emitted != 10 || sum.Dropped != 6 {
		t.Errorf("summary = %+v, want emitted 10 dropped 6", sum)
	}
	if sum.ByType[StepDone] != 10 {
		t.Errorf("ByType[step] = %d, want 10", sum.ByType[StepDone])
	}
}

func TestNilLedgerIsNoOp(t *testing.T) {
	var l *Ledger
	l.Emit(Event{Type: StepDone})
	l.FreqDecision(0, 0, 0, "IAD", 1110, 1110)
	l.BeginRun("turbulence", "mandyn", 3)
	l.StepDone(1, 0, 10)
	l.EndRun(2)
	l.SetPredictions(nil)
	if l.Len() != 0 || l.Emitted() != 0 || l.Summary() != nil || l.Events() != nil {
		t.Error("nil ledger must be inert")
	}
	if err := l.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
}

func TestFreqDecisionCarriesPrediction(t *testing.T) {
	l := NewLedger(0)
	l.SetPredictions(Predictions{
		"MomentumEnergy": {1110: {TimeS: 0.5, EnergyJ: 100, PowerW: 200, EDPJs: 50}},
	})
	l.FreqDecision(1.5, 3, 1, "MomentumEnergy", 1110, 1110)
	l.FreqDecision(1.6, 3, 1, "IAD", 1005, 1005) // no prediction known
	evs := l.Events()
	if evs[0].PredTimeS != 0.5 || evs[0].PredEnergyJ != 100 || evs[0].PredEDPJs != 50 {
		t.Errorf("prediction not attached: %+v", evs[0])
	}
	if evs[1].PredTimeS != 0 || evs[1].PredEDPJs != 0 {
		t.Errorf("unknown kernel must carry no prediction: %+v", evs[1])
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	l := NewLedger(0)
	l.BeginRun("turbulence", "mandyn", 2)
	l.FreqDecision(0.1, 0, 0, "IAD", 1005, 1005)
	l.StepDone(1.0, 0, 42.5)
	l.EndRun(2.0)

	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	evs, truncated, err := ReadJSONL(&buf)
	if err != nil || truncated {
		t.Fatalf("ReadJSONL: err=%v truncated=%v", err, truncated)
	}
	if len(evs) != 4 {
		t.Fatalf("read %d events, want 4", len(evs))
	}
	if evs[1].Type != FreqDecision || evs[1].Subject != "IAD" || evs[1].AppliedMHz != 1005 {
		t.Errorf("freq decision mangled: %+v", evs[1])
	}
	if evs[2].Value != 42.5 {
		t.Errorf("step energy mangled: %+v", evs[2])
	}
}

func TestReadJSONLTruncatedTail(t *testing.T) {
	l := NewLedger(0)
	l.FreqDecision(0.1, 0, 0, "IAD", 1005, 1005)
	l.FreqDecision(0.2, 0, 0, "MomentumEnergy", 1110, 1110)
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// A run killed mid-write leaves a half-line tail.
	full := buf.String()
	cut := full[:len(full)-20]
	evs, truncated, err := ReadJSONL(strings.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if !truncated {
		t.Error("truncated export not flagged")
	}
	if len(evs) != 1 || evs[0].Subject != "IAD" {
		t.Errorf("valid prefix not recovered: %d events %+v", len(evs), evs)
	}
}

// TestRunBoundaryEvents pins what BeginRun, StepDone and EndRun record,
// read back through Events().
func TestRunBoundaryEvents(t *testing.T) {
	l := NewLedger(0)
	l.BeginRun("turbulence", "mandyn", 3)
	l.FreqDecision(0.1, 0, 1, "IAD", 1005, 1005)
	l.StepDone(1.0, 0, 100)
	l.StepDone(2.5, 1, 150)
	l.EndRun(3.0)
	want := []Event{
		{Seq: 1, Step: -1, Rank: -1, Type: RunStart, Subject: "turbulence", Detail: "mandyn", Value: 3},
		{Seq: 2, TimeS: 0.1, Step: 0, Rank: 1, Type: FreqDecision, Subject: "IAD", RequestedMHz: 1005, AppliedMHz: 1005},
		{Seq: 3, TimeS: 1.0, Step: 0, Rank: -1, Type: StepDone, Value: 100},
		{Seq: 4, TimeS: 2.5, Step: 1, Rank: -1, Type: StepDone, Value: 150},
		{Seq: 5, TimeS: 3.0, Step: -1, Rank: -1, Type: RunEnd},
	}
	if got := l.Events(); !reflect.DeepEqual(got, want) {
		t.Errorf("events =\n%+v\nwant\n%+v", got, want)
	}
}

func TestEmitSteadyStateAllocationFree(t *testing.T) {
	l := NewLedger(1024)
	l.BeginRun("turbulence", "mandyn", 100)
	l.SetPredictions(Predictions{"IAD": {1005: {TimeS: 1, EnergyJ: 2, EDPJs: 2}}})
	// Warm the ring to capacity so appends are over.
	for i := 0; i < 2048; i++ {
		l.FreqDecision(float64(i), i, 0, "IAD", 1005, 1005)
	}
	avg := testing.AllocsPerRun(1000, func() {
		l.FreqDecision(1, 1, 0, "IAD", 1005, 1005)
		l.Emit(Event{Type: StepDone, Step: 1, TimeS: 1, Value: 10})
	})
	if avg != 0 {
		t.Errorf("steady-state emit allocates %.1f allocs/op, want 0", avg)
	}
}

// BenchmarkEmit is the acceptance gate for the emit path: one mutexed ring
// store, no allocation.
func BenchmarkEmit(b *testing.B) {
	l := NewLedger(1 << 12)
	l.SetPredictions(Predictions{"IAD": {1005: {TimeS: 1, EnergyJ: 2, EDPJs: 2}}})
	for i := 0; i < 1<<13; i++ {
		l.FreqDecision(float64(i), i, 0, "IAD", 1005, 1005)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.FreqDecision(float64(i), i, 0, "IAD", 1005, 1005)
	}
}
