package events

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// decision is a freq-decision row as a run emits it.
func decision(timeS float64, step, rank int, function string, requestedMHz, appliedMHz int) Event {
	return Event{TimeS: timeS, Step: step, Rank: rank, Type: FreqDecision,
		Subject: function, RequestedMHz: requestedMHz, AppliedMHz: appliedMHz}
}

func TestLedgerSequenceAndRing(t *testing.T) {
	l := NewLedger(4)
	for i := 0; i < 10; i++ {
		l.Emit(Event{Type: StepDone, Step: i})
	}
	evs := retained(l)
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
	l.Emit(decision(0, 0, 0, "IAD", 1110, 1110))
	l.BeginRun("turbulence", "mandyn", 3)
	l.StepDone(1, 0, 10)
	l.EndRun(2)
	if l.Len() != 0 || l.Emitted() != 0 || l.Summary() != nil {
		t.Error("nil ledger must be inert")
	}
	var file bytes.Buffer
	if err := l.WriteJSONL(&file); err != nil || file.Len() != 0 {
		t.Errorf("nil ledger wrote %q, err %v", file.Bytes(), err)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	l := NewLedger(0)
	l.BeginRun("turbulence", "mandyn", 2)
	l.Emit(decision(0.1, 0, 0, "IAD", 1005, 1005))
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
	l.Emit(decision(0.1, 0, 0, "IAD", 1005, 1005))
	l.Emit(decision(0.2, 0, 0, "MomentumEnergy", 1110, 1110))
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
// decoded from the ledger's records.
func TestRunBoundaryEvents(t *testing.T) {
	l := NewLedger(0)
	l.BeginRun("turbulence", "mandyn", 3)
	l.Emit(decision(0.1, 0, 1, "IAD", 1005, 1005))
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
	if got := retained(l); !reflect.DeepEqual(got, want) {
		t.Errorf("events =\n%+v\nwant\n%+v", got, want)
	}
}

func TestEmitSteadyStateAllocationFree(t *testing.T) {
	l := NewLedger(1024)
	l.BeginRun("turbulence", "mandyn", 100)
	// Warm the ring to capacity so appends are over.
	for i := 0; i < 2048; i++ {
		l.Emit(decision(float64(i), i, 0, "IAD", 1005, 1005))
	}
	avg := testing.AllocsPerRun(1000, func() {
		l.Emit(decision(1, 1, 0, "IAD", 1005, 1005))
		l.Emit(Event{Type: StepDone, Step: 1, TimeS: 1, Value: 10})
	})
	if avg != 0 {
		t.Errorf("steady-state emit allocates %.1f allocs/op, want 0", avg)
	}
}

// TestLedgerKeepsPreambleWhenWrapped: the events before the first run-start
// and the run-start itself stay however far the run wraps the ring, the
// retained total stays within the capacity, and a ledger without a
// run-start rotates as a plain ring.
func TestLedgerKeepsPreambleWhenWrapped(t *testing.T) {
	const capacity, sweep, decisions = 64, 40, 500
	l := NewLedger(capacity)
	for i := 0; i < sweep; i++ {
		l.Emit(Event{Step: -1, Rank: -1, Type: TunerMeasure, Subject: "IAD",
			AppliedMHz: 1005 + 15*i, PredTimeS: 0.5, PredEDPJs: float64(i + 1)})
	}
	l.BeginRun("turbulence", "mandyn", decisions)
	for i := 0; i < decisions; i++ {
		l.Emit(decision(float64(i), i, i%8, "IAD", 1005, 1005))
	}
	const emitted = sweep + 1 + decisions
	evs := retained(l)
	if len(evs) != capacity || l.Len() != capacity {
		t.Fatalf("retained %d events (Len %d), want %d", len(evs), l.Len(), capacity)
	}
	for i, ev := range evs {
		want := uint64(i + 1) // the sweep and the run-start
		if i > sweep {
			want = emitted - capacity + uint64(i) + 1 // the last decisions
		}
		if ev.Seq != want {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	if evs[sweep-1].Type != TunerMeasure || evs[sweep].Type != RunStart || evs[sweep+1].Type != FreqDecision {
		t.Errorf("preamble ends %s, %s, then %s", evs[sweep-1].Type, evs[sweep].Type, evs[sweep+1].Type)
	}
	if n := capacity - sweep - 1; evs[sweep+1].Step != decisions-n {
		t.Errorf("the ring keeps decisions from step %d, want the last %d", evs[sweep+1].Step, n)
	}
	if sum := l.Summary(); sum.Emitted != emitted || sum.Dropped != emitted-capacity {
		t.Errorf("summary %+v, want %d emitted and %d dropped", sum, emitted, emitted-capacity)
	}
	var file bytes.Buffer
	if err := l.WriteJSONL(&file); err != nil {
		t.Fatal(err)
	}
	back, truncated, err := ReadJSONL(&file)
	if err != nil || truncated || !reflect.DeepEqual(back, evs) {
		t.Fatalf("round trip: %d events of %d, truncated %v, err %v", len(back), len(evs), truncated, err)
	}

	plain := NewLedger(capacity)
	for i := 0; i < emitted; i++ {
		plain.Emit(decision(float64(i), i, 0, "IAD", 1005, 1005))
	}
	evs = retained(plain)
	if len(evs) != capacity || evs[0].Seq != emitted-capacity+1 || evs[capacity-1].Seq != emitted {
		t.Errorf("without a run-start: %d events, seq %d..%d, want the last %d", len(evs), evs[0].Seq, evs[len(evs)-1].Seq, capacity)
	}

	// A sweep that fills the ring leaves no room to pin it: the ring keeps
	// rotating.
	full := NewLedger(sweep)
	for i := 0; i < sweep; i++ {
		full.Emit(Event{Type: TunerMeasure, AppliedMHz: 1005 + 15*i})
	}
	full.BeginRun("turbulence", "mandyn", decisions)
	full.Emit(decision(0, 0, 0, "IAD", 1005, 1005))
	if evs = retained(full); len(evs) != sweep || evs[0].Seq != 3 || evs[sweep-1].Type != FreqDecision {
		t.Errorf("a full ring at the run-start: %d events from seq %d, want %d from seq 3", len(evs), evs[0].Seq, sweep)
	}
}

// BenchmarkEmit is the acceptance gate for the emit path: a record packed
// and stored in a full ring that rotates, no allocation. B/event is the
// storage the ring holds per event it retains.
func BenchmarkEmit(b *testing.B) {
	l := NewLedger(1 << 12)
	for i := 0; i < 1<<13; i++ {
		l.Emit(decision(float64(i), i, 0, "IAD", 1005, 1005))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Emit(decision(float64(i), i, 0, "IAD", 1005, 1005))
	}
	b.StopTimer()
	b.ReportMetric(float64(HeldBytes(l))/float64(l.Len()), "B/event")
}
