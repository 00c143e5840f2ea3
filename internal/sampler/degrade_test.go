package sampler

import (
	"math"
	"testing"

	"sphenergy/internal/pmt"
)

// nanAt replays states but substitutes NaN energy at the given indices,
// modelling a transiently failing sensor.
type nanAt struct {
	scriptSensor
	bad map[int]bool
}

func (s *nanAt) Read() pmt.State {
	i := s.i
	st := s.scriptSensor.Read()
	if s.bad[i] {
		return pmt.State{TimeS: st.TimeS, EnergyJ: math.NaN()}
	}
	return st
}

func TestNaNReadsDiscardedAndFlagged(t *testing.T) {
	// 100 W throughout; poll 2 (t=0.2) fails. The outage and recovery
	// ticks are flagged, and total energy is reconciled exactly on the
	// next good read.
	sen := &nanAt{scriptSensor: scriptSensor{name: "fake", states: []pmt.State{
		{TimeS: 0, EnergyJ: 0},
		{TimeS: 0.1, EnergyJ: 10},
		{TimeS: 0.2, EnergyJ: 20},
		{TimeS: 0.3, EnergyJ: 30},
	}}, bad: map[int]bool{2: true}}
	s := New(Config{GPUHz: 10})
	ch := s.Add("fake", 0, sen, 10)
	for i := 0; i < 4; i++ {
		ch.Poll()
	}
	st := ch.Stats()
	if st.FaultReads != 1 {
		t.Fatalf("FaultReads = %d, want 1", st.FaultReads)
	}
	if !approx(st.AccumJ, 30, 1e-9) {
		t.Fatalf("AccumJ = %g, want 30 (no double counting across the outage)", st.AccumJ)
	}
	var flagged []float64
	for _, smp := range ch.Samples() {
		if smp.Degraded {
			flagged = append(flagged, smp.TimeS)
		}
	}
	// The NaN poll covers the tick at 0.2 (estimated), the recovery poll
	// covers 0.3.
	if len(flagged) != 2 || !approx(flagged[0], 0.2, 1e-9) || !approx(flagged[1], 0.3, 1e-9) {
		t.Fatalf("degraded ticks at %v, want [0.2 0.3]", flagged)
	}
	if st.DegradedTicks != 2 {
		t.Fatalf("DegradedTicks = %d, want 2", st.DegradedTicks)
	}
}

func TestModelEstimateExtrapolatesLastPower(t *testing.T) {
	// 100 W observed, then the sensor dies for good: estimates continue at
	// the last observed tick power.
	states := []pmt.State{
		{TimeS: 0, EnergyJ: 0},
		{TimeS: 0.1, EnergyJ: 10},
	}
	for i := 0; i < 3; i++ {
		states = append(states, pmt.State{TimeS: 0.2 + 0.1*float64(i), EnergyJ: math.NaN()})
	}
	sen := &scriptSensor{name: "fake", states: states}
	s := New(Config{GPUHz: 10})
	ch := s.Add("fake", 0, sen, 10)
	for range states {
		ch.Poll()
	}
	smps := ch.Samples()
	last := smps[len(smps)-1]
	if !last.Degraded {
		t.Fatal("estimated tail not flagged")
	}
	if !approx(last.TimeS, 0.4, 1e-9) || !approx(last.EnergyJ, 40, 1e-6) {
		t.Fatalf("model tail = %+v, want 100 W extrapolation to (0.4, 40)", last)
	}
}

func TestStuckDetectionLatchesAndRecovers(t *testing.T) {
	// Energy freezes at 10 J for 4 polls while time advances a full period
	// each — a stalled collection loop — then recovers with the true
	// cumulative count.
	sen := &scriptSensor{name: "fake", states: []pmt.State{
		{TimeS: 0, EnergyJ: 0},
		{TimeS: 0.1, EnergyJ: 10},
		{TimeS: 0.2, EnergyJ: 10},
		{TimeS: 0.3, EnergyJ: 10},
		{TimeS: 0.4, EnergyJ: 10},
		{TimeS: 0.5, EnergyJ: 10},
		{TimeS: 0.6, EnergyJ: 60},
	}}
	s := New(Config{GPUHz: 10})
	ch := s.Add("fake", 0, sen, 10)
	for i := 0; i < 7; i++ {
		ch.Poll()
	}
	st := ch.Stats()
	if st.StuckEvents != 1 {
		t.Fatalf("StuckEvents = %d, want 1", st.StuckEvents)
	}
	if st.Degraded {
		t.Fatal("channel still degraded after recovery")
	}
	// True energy 60 J; the frozen stretch contributed zero observed delta
	// and the recovery read reconciles the whole outage.
	if !approx(st.AccumJ, 60, 1e-9) {
		t.Fatalf("AccumJ = %g, want 60", st.AccumJ)
	}
	var flagged int
	for _, smp := range ch.Samples() {
		if smp.Degraded {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("no ticks flagged across the stuck stretch")
	}
}

func TestStuckNotTriggeredByQuantization(t *testing.T) {
	// A 10 Hz-quantized counter re-read several times within one collection
	// window repeats energy with sub-period time advances — expected
	// behaviour, not a fault.
	sen := &scriptSensor{name: "fake", states: []pmt.State{
		{TimeS: 0, EnergyJ: 0},
		{TimeS: 0.02, EnergyJ: 0},
		{TimeS: 0.04, EnergyJ: 0},
		{TimeS: 0.06, EnergyJ: 0},
		{TimeS: 0.08, EnergyJ: 0},
		{TimeS: 0.12, EnergyJ: 12},
	}}
	s := New(Config{NodeHz: 10})
	ch := s.Add("fake", -1, sen, 10)
	for i := 0; i < 6; i++ {
		ch.Poll()
	}
	st := ch.Stats()
	if st.StuckEvents != 0 || st.DegradedTicks != 0 {
		t.Fatalf("quantized repetition misdetected as stuck: %+v", st)
	}
}

func TestSecondaryCreditExceedingPrimaryClamps(t *testing.T) {
	// The credit a degraded read adds on top of the primary's counter
	// overshoots what the primary later reports. 100 W, then two failed
	// reads the last tick's power extrapolates to 30 J. The primary comes
	// back at 10.1 J — it truly lost the energy — so the estimate stands
	// and the recovery clamp prevents a negative delta.
	sen := &nanAt{scriptSensor: scriptSensor{name: "prim", states: []pmt.State{
		{TimeS: 0, EnergyJ: 0},
		{TimeS: 0.1, EnergyJ: 10},
		{TimeS: 0.2},
		{TimeS: 0.3},
		{TimeS: 0.4, EnergyJ: 10.1}, // counter barely moved
	}}, bad: map[int]bool{2: true, 3: true}}
	s := New(Config{GPUHz: 10})
	ch := s.Add("prim", 0, sen, 10)
	for i := 0; i < 5; i++ {
		ch.Poll()
	}
	st := ch.Stats()
	// 10 J observed + 20 J extrapolated; the 10.1 J recovery read is below
	// the extrapolated anchor and clamps to zero additional delta.
	if !approx(st.AccumJ, 30, 1e-9) {
		t.Fatalf("AccumJ = %g, want 30", st.AccumJ)
	}
	if st.DegradedTicks != 3 {
		t.Fatalf("DegradedTicks = %d, want 3 (two outage ticks and the recovery)", st.DegradedTicks)
	}
}

// The two satellite edge-case tests below pin down ring-drop accounting
// under a long backend stall and Kahan accumulation across
// stuck-then-recover.

func TestRingDropAccountingAcrossStallBackfill(t *testing.T) {
	// A tiny ring (8 samples) with a backend that stalls for 50 tick
	// windows and then recovers: the backfilled catch-up ticks must rotate
	// the ring with exact drop accounting, never reallocate past cap.
	sen := &scriptSensor{name: "fake", states: []pmt.State{
		{TimeS: 0, EnergyJ: 0},
		{TimeS: 0.1, EnergyJ: 10},
		// Stall: no energy, no time — the sampler simply isn't polled.
		{TimeS: 5.1, EnergyJ: 510}, // 50 windows later
	}}
	s := New(Config{GPUHz: 10, RingCap: 8})
	ch := s.Add("fake", 0, sen, 10)
	ch.Poll()
	ch.Poll()
	ch.Poll()
	st := ch.Stats()
	// Ticks at 0, 0.1, then 0.2..5.1 inclusive = 2 + 50 = 52.
	if st.Ticks != 52 {
		t.Fatalf("Ticks = %d, want 52", st.Ticks)
	}
	if st.Dropped != 52-8 {
		t.Fatalf("Dropped = %d, want %d", st.Dropped, 52-8)
	}
	smps := ch.Samples()
	if len(smps) != 8 {
		t.Fatalf("retained = %d, want ring cap 8", len(smps))
	}
	for i := 1; i < len(smps); i++ {
		if smps[i].TimeS <= smps[i-1].TimeS {
			t.Fatal("retained ring out of order after rotation")
		}
	}
	if !approx(smps[len(smps)-1].TimeS, 5.1, 1e-9) {
		t.Fatalf("newest retained tick at %g, want 5.1", smps[len(smps)-1].TimeS)
	}
	if !approx(st.MaxPollGapS, 5.0, 1e-9) {
		t.Fatalf("MaxPollGapS = %g, want 5.0", st.MaxPollGapS)
	}
}

func TestKahanAccumulationAcrossStuckRecover(t *testing.T) {
	// Millions of tiny deltas interrupted by a stuck stretch: the Kahan
	// sum must stay exact (naive summation drifts at this magnitude).
	const n = 2_000_000
	const deltaJ = 1e-9
	states := make([]pmt.State, 0, n+10)
	t0, e0 := 0.0, 0.0
	for i := 0; i < n/2; i++ {
		states = append(states, pmt.State{TimeS: t0, EnergyJ: e0})
		t0 += 1e-3
		e0 += deltaJ
	}
	stuckE := states[len(states)-1].EnergyJ
	for i := 0; i < 5; i++ { // stuck: energy frozen, time advancing
		states = append(states, pmt.State{TimeS: t0, EnergyJ: stuckE})
		t0 += 1e-3
	}
	for i := 0; i < n/2; i++ {
		states = append(states, pmt.State{TimeS: t0, EnergyJ: e0})
		t0 += 1e-3
		e0 += deltaJ
	}
	sen := &scriptSensor{name: "fake", states: states}
	s := New(Config{GPUHz: 1000, RingCap: 16})
	ch := s.Add("fake", 0, sen, 1000)
	for range states {
		ch.Poll()
	}
	st := ch.Stats()
	want := states[len(states)-1].EnergyJ
	if math.Abs(st.AccumJ-want) > 1e-15*float64(n) {
		t.Fatalf("AccumJ = %.18g, want %.18g (drift %g)", st.AccumJ, want, st.AccumJ-want)
	}
	if st.StuckEvents != 1 {
		t.Fatalf("StuckEvents = %d, want 1", st.StuckEvents)
	}
}
