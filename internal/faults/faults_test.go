package faults

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"sphenergy/internal/pmt"
)

func TestParsePlanValidates(t *testing.T) {
	good := []byte(`{"seed": 42, "rules": [
		{"kind": "transient", "target": "sensor", "probability": 0.1, "burst": 2},
		{"kind": "clamped-clock", "target": "clock", "start_s": 1, "end_s": 2, "mhz": 900}
	]}`)
	p, err := ParsePlan(append(good, " \n\t"...))
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	if p.Seed != 42 || len(p.Rules) != 2 {
		t.Fatalf("unexpected plan %+v", p)
	}

	bad := []struct {
		name string
		json string
	}{
		{"unknown kind", `{"seed":1,"rules":[{"kind":"meltdown","target":"sensor"}]}`},
		{"unknown target", `{"seed":1,"rules":[{"kind":"stuck","target":"moon"}]}`},
		{"probability range", `{"seed":1,"rules":[{"kind":"stuck","target":"sensor","probability":1.5}]}`},
		{"empty window", `{"seed":1,"rules":[{"kind":"stuck","target":"sensor","start_s":5,"end_s":3}]}`},
		{"clamp without mhz", `{"seed":1,"rules":[{"kind":"clamped-clock","target":"clock"}]}`},
		{"straggler factor", `{"seed":1,"rules":[{"kind":"straggler","target":"rank","factor":0.5}]}`},
		{"unknown field", `{"seed":1,"rules":[{"kind":"stuck","target":"sensor","typo_field":1}]}`},
		{"extra brace", `{"seed":7,"rules":[{"kind":"stuck","target":"sensor"}]}}`},
		{"second plan", `{"seed":7,"rules":[{"kind":"stuck","target":"sensor"}]} {"seed":8}`},
		{"trailing garbage", `{"seed":7,"rules":[{"kind":"stuck","target":"sensor"}]}garbage`},
	}
	for _, tc := range bad {
		if _, err := ParsePlan([]byte(tc.json)); err == nil {
			t.Errorf("%s: ParsePlan accepted invalid plan", tc.name)
		}
	}
}

func TestLoadPlanInlineJSON(t *testing.T) {
	p, err := LoadPlan(` {"seed": 7, "rules": [{"kind": "stuck", "target": "node-sensor"}]}`)
	if err != nil {
		t.Fatalf("LoadPlan inline: %v", err)
	}
	if p.Seed != 7 {
		t.Fatalf("seed = %d, want 7", p.Seed)
	}
	if _, err := LoadPlan("/definitely/not/a/file.json"); err == nil {
		t.Fatal("LoadPlan accepted a missing file")
	}
}

// drawSequence records which operations fire for a fresh injector.
func drawSequence(p *Plan, target Target, instance, n int) []Kind {
	in := p.Injector(target, instance)
	out := make([]Kind, n)
	for i := 0; i < n; i++ {
		out[i] = in.Evaluate(float64(i)*0.1, -1).Kind
	}
	return out
}

func TestInjectorDeterministicPerTarget(t *testing.T) {
	p := &Plan{Seed: 99, Rules: []Rule{
		{Kind: Transient, Target: TargetSensor, Probability: 0.3},
	}}
	a := drawSequence(p, TargetSensor, 0, 200)
	b := drawSequence(p, TargetSensor, 0, 200)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, target, instance) produced different sequences")
	}
	c := drawSequence(p, TargetSensor, 1, 200)
	if reflect.DeepEqual(a, c) {
		t.Fatal("distinct instances produced identical sequences (streams correlated)")
	}
	fired := 0
	for _, k := range a {
		if k == Transient {
			fired++
		}
	}
	if fired < 30 || fired > 90 {
		t.Fatalf("0.3 probability fired %d/200 times; stream looks broken", fired)
	}
}

func TestInjectorBurst(t *testing.T) {
	p := &Plan{Seed: 1, Rules: []Rule{
		// Fires on every in-window evaluation, then the burst keeps it
		// active outside the window too.
		{Kind: Stuck, Target: TargetSensor, Burst: 3, StartS: 0, EndS: 0.05},
	}}
	in := p.Injector(TargetSensor, 0)
	var got []bool
	for i := 0; i < 6; i++ {
		got = append(got, !in.Evaluate(float64(i)*0.04, -1).None())
	}
	// t=0.00 fires (burst=3 armed, 2 left), t=0.04 burst, t=0.08 burst,
	// t=0.12.. outside window and burst exhausted.
	want := []bool{true, true, true, false, false, false}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("burst sequence = %v, want %v", got, want)
	}
	if in.Counts()[Stuck] != 3 {
		t.Fatalf("count = %d, want 3", in.Counts()[Stuck])
	}
}

func TestInjectorWindowAndAlwaysFire(t *testing.T) {
	p := &Plan{Seed: 5, Rules: []Rule{
		{Kind: ClampedClock, Target: TargetClock, StartS: 1.0, EndS: 2.0, MHz: 900},
	}}
	in := p.Injector(TargetClock, 2)
	for _, tc := range []struct {
		now  float64
		want bool
	}{{0.5, false}, {1.0, true}, {1.9, true}, {2.0, false}, {3.0, false}} {
		if fired := !in.Evaluate(tc.now, -1).None(); fired != tc.want {
			t.Errorf("t=%.1f fired=%v, want %v", tc.now, fired, tc.want)
		}
	}
}

func TestInjectorRankFilter(t *testing.T) {
	p := &Plan{Seed: 3, Rules: []Rule{
		{Kind: Straggler, Target: TargetRank, Ranks: []int{1}, Factor: 4},
	}}
	if in := p.Injector(TargetRank, 0); !in.Evaluate(0, 0).None() {
		t.Fatal("rank 0 matched a rule scoped to rank 1")
	}
	in := p.Injector(TargetRank, 1)
	d := in.Evaluate(0, 0)
	if d.Kind != Straggler || d.Rule.Factor != 4 {
		t.Fatalf("rank 1 decision = %+v", d)
	}
}

func TestStepPinnedCrashFiresOnce(t *testing.T) {
	p := &Plan{Seed: 8, Rules: []Rule{
		{Kind: RankCrash, Target: TargetRank, Step: 3},
	}}
	in := p.Injector(TargetRank, 0)
	var fired []int
	for step := 0; step < 6; step++ {
		if !in.Evaluate(float64(step), step).None() {
			fired = append(fired, step)
		}
		// A second evaluation in the same step must not re-fire.
		if !in.Evaluate(float64(step), step).None() {
			t.Fatalf("step %d fired twice", step)
		}
	}
	if !reflect.DeepEqual(fired, []int{3}) {
		t.Fatalf("crash fired at steps %v, want [3]", fired)
	}
}

// fakeSensor reads a fixed state and counts its reads.
type fakeSensor struct {
	st    pmt.State
	reads int
}

func (s *fakeSensor) Name() string { return "fake" }

func (s *fakeSensor) Read() pmt.State {
	s.reads++
	return s.st
}

func TestSensorHookErrorMapping(t *testing.T) {
	p := &Plan{Seed: 2, Rules: []Rule{
		{Kind: Transient, Target: TargetSensor, StartS: 0, EndS: 1},
		{Kind: Stuck, Target: TargetSensor, StartS: 1, EndS: 2},
	}}
	now := 1.5
	inner := &fakeSensor{st: pmt.State{TimeS: 2.5, EnergyJ: 10}}
	s := p.Injector(TargetSensor, 0).Sensor(inner, func() float64 { return now })
	if st := s.Read(); !math.IsNaN(st.EnergyJ) || st.TimeS != now || inner.reads != 0 {
		t.Fatalf("stuck before a good read: %+v after %d inner reads, want NaN at %v and none", st, inner.reads, now)
	}
	now = 2.5
	good := s.Read()
	if good != inner.st || inner.reads != 1 {
		t.Fatalf("outside windows: %+v, want the inner read %+v", good, inner.st)
	}
	inner.st = pmt.State{TimeS: 3, EnergyJ: 20}
	now = 0.5
	if st := s.Read(); !math.IsNaN(st.EnergyJ) || st.TimeS != now {
		t.Fatalf("in transient window: %+v, want NaN at %v", st, now)
	}
	now = 1.5
	if st := s.Read(); st != good {
		t.Fatalf("in stuck window: %+v, want the last good read %+v", st, good)
	}
	if inner.reads != 1 {
		t.Fatalf("faulted reads reached the inner sensor: %d reads", inner.reads)
	}
}

func TestClockHookClampAndReject(t *testing.T) {
	p := &Plan{Seed: 4, Rules: []Rule{
		{Kind: ClampedClock, Target: TargetClock, StartS: 0, EndS: 1, MHz: 900},
		{Kind: RejectedSet, Target: TargetClock, StartS: 1, EndS: 2},
	}}
	in := p.Injector(TargetClock, 0)
	if mhz, err := in.ClockSet(0.5, 1200); err != nil || mhz != 900 {
		t.Fatalf("clamp: (%d, %v), want (900, nil)", mhz, err)
	}
	if mhz, err := in.ClockSet(0.5, 800); err != nil || mhz != 800 {
		t.Fatalf("below ceiling: (%d, %v), want (800, nil)", mhz, err)
	}
	_, err := in.ClockSet(1.5, 1200)
	if !errors.Is(err, ErrRejected) {
		t.Fatalf("reject window: err = %v, want ErrRejected", err)
	}
	if want := "faults: injected rejected clock set (clock-set 1200 MHz)"; err.Error() != want {
		t.Fatalf("reject text %q, want %q", err, want)
	}
	if mhz, err := in.ClockSet(5, 1200); err != nil || mhz != 1200 {
		t.Fatalf("healthy: (%d, %v), want (1200, nil)", mhz, err)
	}
}

func TestNilInjectorIsNoOp(t *testing.T) {
	var in *Injector
	if !in.Evaluate(0, 0).None() {
		t.Fatal("nil injector fired")
	}
	sensor := &fakeSensor{}
	if in.Sensor(sensor, nil) != pmt.Sensor(sensor) {
		t.Fatal("nil injector wrapped the inner sensor")
	}
	if mhz, err := in.ClockSet(0, 1005); err != nil || mhz != 1005 {
		t.Fatalf("nil injector's clock set = (%d, %v), want (1005, nil)", mhz, err)
	}
	if in.MissTick(nil) != nil {
		t.Fatal("nil injector produced a collection hook")
	}
	var p *Plan
	if p.Injector(TargetSensor, 0) != nil {
		t.Fatal("nil plan produced an injector")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("nil plan Validate: %v", err)
	}
}

func TestCollectCountsSortedDeterministic(t *testing.T) {
	p := &Plan{Seed: 11, Rules: []Rule{
		{Kind: Transient, Target: TargetSensor, Probability: 0.5},
		{Kind: Stuck, Target: TargetNodeSensor},
	}}
	s0 := p.Injector(TargetSensor, 0)
	s1 := p.Injector(TargetSensor, 1)
	n0 := p.Injector(TargetNodeSensor, 0)
	for i := 0; i < 50; i++ {
		s0.Evaluate(float64(i), -1)
		s1.Evaluate(float64(i), -1)
		n0.Evaluate(float64(i), -1)
	}
	a := CollectCounts(s0, nil, s1, n0)
	b := CollectCounts(s0, nil, s1, n0)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("CollectCounts not deterministic")
	}
	for i := 1; i < len(a); i++ {
		if a[i-1].Stream > a[i].Stream {
			t.Fatalf("counts not sorted: %v", a)
		}
	}
	var nodeStuck uint64
	for _, c := range a {
		if c.Stream == "node-sensor/0" && c.Kind == Stuck {
			nodeStuck = c.Count
		}
	}
	if nodeStuck != 50 {
		t.Fatalf("node-sensor stuck count = %d, want 50", nodeStuck)
	}
}
