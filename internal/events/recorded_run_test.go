package events_test

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"sphenergy"
	"sphenergy/internal/events"
)

// recordedLedger is the ledger of one fixed observed run — the tuner's
// sweep of the Turbulence pipeline on CSCS-A100, then 8 ranks and 300 steps
// of ManDyn on its table, every decision carrying the sweep's prediction —
// recorded once and shared by the identity test and the round-trip
// benchmark (7 900 events, 1.1 MB of JSONL).
var recordedLedger = sync.OnceValues(func() (*events.Ledger, error) {
	sys := sphenergy.CSCSA100()
	led := sphenergy.NewEventLedger(0)
	table, err := sphenergy.TuneFrequenciesObserved(sys, sphenergy.Turbulence, 10e6, 150, led)
	if err != nil {
		return nil, err
	}
	_, err = sphenergy.Run(sphenergy.Config{System: sys, Ranks: 8, Sim: sphenergy.Turbulence,
		ParticlesPerRank: 10e6, Steps: 300, Seed: 42, Events: led, NewStrategy: sphenergy.ManDyn(table)})
	return led, err
})

func mustRecordedLedger(tb testing.TB) *events.Ledger {
	tb.Helper()
	led, err := recordedLedger()
	if err != nil {
		tb.Fatal(err)
	}
	return led
}

// TestLedgerFileOfRealRunUnchanged holds the export of a real ManDyn run to
// the bytes encoding/json wrote for it, and the read-back to the events
// encoding/json read.
func TestLedgerFileOfRealRunUnchanged(t *testing.T) {
	led := mustRecordedLedger(t)
	sum := led.Summary()
	if sum.ByType[events.FreqDecision] == 0 || sum.ByType[events.TunerMeasure] == 0 || sum.Dropped != 0 {
		t.Fatalf("the run's ledger lacks decisions or the sweep, or wrapped: %+v", sum)
	}
	var want, got bytes.Buffer
	if err := events.OracleWriteJSONL(led, &want); err != nil {
		t.Fatal(err)
	}
	if err := led.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		i := 0
		for i < got.Len() && i < want.Len() && got.Bytes()[i] == want.Bytes()[i] {
			i++
		}
		t.Fatalf("WriteJSONL (%d bytes) differs from encoding/json's (%d bytes) at offset %d", got.Len(), want.Len(), i)
	}
	wantEvs, _, err := events.OracleReadJSONL(bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	gotEvs, truncated, err := events.ReadJSONL(&got)
	if err != nil || truncated {
		t.Fatalf("read back: truncated %v, err %v", truncated, err)
	}
	if !reflect.DeepEqual(gotEvs, wantEvs) || !reflect.DeepEqual(gotEvs, led.Events()) {
		t.Fatalf("read back %d events that differ from the %d encoding/json reads or the %d the ledger holds",
			len(gotEvs), len(wantEvs), led.Len())
	}
}

var roundTripSink []events.Event

// BenchmarkLedgerRoundTrip writes the recorded run's ledger and reads it
// back, the pair an observed run's bundle pays for.
func BenchmarkLedgerRoundTrip(b *testing.B) {
	led := mustRecordedLedger(b)
	var file bytes.Buffer
	if err := led.WriteJSONL(&file); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(2 * int64(file.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		file.Reset()
		if err := led.WriteJSONL(&file); err != nil {
			b.Fatal(err)
		}
		evs, truncated, err := events.ReadJSONL(&file)
		if err != nil || truncated || len(evs) != led.Len() {
			b.Fatalf("read back %d of %d events, truncated %v, err %v", len(evs), led.Len(), truncated, err)
		}
		roundTripSink = evs
	}
}
