package freqctl

import (
	"errors"
	"math"
	"sync"
	"testing"

	"sphenergy/internal/faults"
	"sphenergy/internal/gpusim"
)

// flakySetter fails SetSMClock according to a script: entry i is the error
// for call i (nil = success). Past the script everything succeeds. Safe
// for concurrent use.
type flakySetter struct {
	mu     sync.Mutex
	script []error
	calls  int
	resets int
	mhz    int
	max    int
	clamp  int // when >0, successful sets are clamped to this
}

func (f *flakySetter) SetSMClock(mhz int) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	i := f.calls
	f.calls++
	if i < len(f.script) && f.script[i] != nil {
		return 0, f.script[i]
	}
	if f.clamp > 0 && mhz > f.clamp {
		mhz = f.clamp
	}
	f.mhz = mhz
	return mhz, nil
}

func (f *flakySetter) ResetClocks() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.resets++
	return nil
}

func (f *flakySetter) MaxSMClock() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.max == 0 {
		return 1410
	}
	return f.max
}

func (f *flakySetter) SetPowerLimitW(float64) error { return nil }

func (f *flakySetter) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

var errFlaky = errors.New("flaky")

func TestResilientSetterRetriesThroughTransients(t *testing.T) {
	inner := &flakySetter{script: []error{errFlaky, errFlaky, nil}}
	r := NewResilientSetter(inner)
	applied, err := r.SetSMClock(1005)
	if err != nil || applied != 1005 {
		t.Fatalf("SetSMClock = (%d, %v), want (1005, nil)", applied, err)
	}
	st := r.Stats()
	if st.Retries != 2 || st.Absorbed != 0 || st.LastApplied != 1005 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestResilientSetterAbsorbsExhaustedFailure(t *testing.T) {
	inner := &flakySetter{script: []error{nil, errFlaky, errFlaky, errFlaky}}
	r := NewResilientSetter(inner)
	if _, err := r.SetSMClock(1200); err != nil {
		t.Fatal(err)
	}
	applied, err := r.SetSMClock(900)
	if err != nil {
		t.Fatalf("exhausted failure must be absorbed, got %v", err)
	}
	if applied != 1200 {
		t.Fatalf("absorbed set returned %d, want last applied 1200", applied)
	}
	st := r.Stats()
	if st.Absorbed != 1 || st.Broken {
		t.Fatalf("stats = %+v", st)
	}
}

func TestResilientSetterBreakerLatchesSafeClock(t *testing.T) {
	// The first 9 calls fail — 3 sets × 3 attempts each — so every set
	// exhausts its retries; after breakerThreshold consecutive exhaustions
	// the breaker trips and pins the device's maximum clock (call 10, which
	// succeeds).
	script := make([]error, (resilientRetries+1)*breakerThreshold)
	for i := range script {
		script[i] = errFlaky
	}
	inner := &flakySetter{script: script}
	safe := inner.MaxSMClock()
	r := NewResilientSetter(inner)
	for i := 0; i < 3; i++ {
		if _, err := r.SetSMClock(900); err != nil {
			t.Fatal(err)
		}
	}
	if !r.Stats().Broken {
		t.Fatal("breaker should be latched after 3 exhausted failures")
	}
	if inner.mhz != safe {
		t.Fatalf("device clock %d, want safe %d", inner.mhz, safe)
	}
	before := inner.callCount()
	applied, err := r.SetSMClock(600)
	if err != nil || applied != safe {
		t.Fatalf("post-latch set = (%d, %v), want (%d, nil)", applied, err, safe)
	}
	if inner.callCount() != before {
		t.Fatal("latched breaker still reached the device")
	}
	st := r.Stats()
	if st.BreakerTrips != 1 || st.ShortCircuits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestResilientSetterRejectsInvalidMHz(t *testing.T) {
	r := NewResilientSetter(&flakySetter{})
	for _, mhz := range []int{0, -5} {
		if _, err := r.SetSMClock(mhz); err == nil {
			t.Errorf("SetSMClock(%d) accepted", mhz)
		}
	}
	if _, err := ValidMHz(math.NaN()); err == nil {
		t.Error("ValidMHz(NaN) accepted")
	}
	if _, err := ValidMHz(math.Inf(1)); err == nil {
		t.Error("ValidMHz(+Inf) accepted")
	}
	if v, err := ValidMHz(1005.9); err != nil || v != 1005 {
		t.Errorf("ValidMHz(1005.9) = (%d, %v)", v, err)
	}
}

func TestResilientSetterVerifiesAchievedClock(t *testing.T) {
	inner := &flakySetter{clamp: 801}
	r := NewResilientSetter(inner)
	applied, err := r.SetSMClock(1005)
	if err != nil || applied != 801 {
		t.Fatalf("clamped set = (%d, %v), want (801, nil)", applied, err)
	}
	if st := r.Stats(); st.Clamped != 1 || st.LastApplied != 801 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestManDynConvergesUnderClamp(t *testing.T) {
	// Regression for the clamp-thrash bug: when the platform clamps the
	// table clock, elision must key on the requested clock, or every
	// Apply re-issues the same doomed set.
	inner := &flakySetter{clamp: 801}
	m := &ManDyn{Table: map[string]int{"momentum": 1005}, Default: 1410}
	if err := m.Setup(inner); err != nil {
		t.Fatal(err)
	}
	setsAfterSetup := inner.callCount()
	for i := 0; i < 5; i++ {
		if err := m.Apply(inner, "momentum"); err != nil {
			t.Fatal(err)
		}
	}
	if got := inner.callCount() - setsAfterSetup; got != 1 {
		t.Fatalf("clamped table clock issued %d sets over 5 applies, want 1", got)
	}
	if inner.mhz != 801 {
		t.Fatalf("clock left at %d MHz, want achieved 801", inner.mhz)
	}
	// Switching to another function and back must still re-issue.
	if err := m.Apply(inner, "other"); err != nil { // default 1410 → clamped 801
		t.Fatal(err)
	}
	if err := m.Apply(inner, "momentum"); err != nil {
		t.Fatal(err)
	}
	if got := inner.callCount() - setsAfterSetup; got != 3 {
		t.Fatalf("function switches issued %d sets, want 3", got)
	}
}

func TestManDynWithResilientSetterUnderFaultPlan(t *testing.T) {
	// End-to-end: ManDyn through a ResilientSetter over a real NVML-backed
	// device with an injected clamped-clock window. The strategy must
	// converge (no set storm) and leave the device at the achieved clock.
	dev := gpusim.NewDevice(gpusim.A100SXM480GB(), 0)
	s, err := SetterFor(dev)
	if err != nil {
		t.Fatal(err)
	}
	plan := &faults.Plan{Seed: 3, Rules: []faults.Rule{
		{Kind: faults.ClampedClock, Target: faults.TargetClock, MHz: 900},
	}}
	if !AttachFaultHook(s, plan.Injector(faults.TargetClock, 0).ClockHook(dev.Now)) {
		t.Fatal("AttachFaultHook failed on NVML setter")
	}
	r := NewResilientSetter(s)
	m := &ManDyn{Table: map[string]int{"momentum": 1005}}
	if err := m.Setup(r); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := m.Apply(r, "momentum"); err != nil {
			t.Fatal(err)
		}
	}
	// 900 is not in the A100 table; the device snaps to the nearest
	// supported application clock at or below the injector's ceiling.
	if applied := dev.SMClockMHz(); applied >= 1005 || applied <= 0 {
		t.Fatalf("device at %d MHz, want clamped below request", applied)
	}
	if st := r.Stats(); st.Clamped == 0 {
		t.Fatalf("clamp not observed: %+v", st)
	}
}
