package sampler

import (
	"math"
	"testing"

	"sphenergy/internal/pmt"
)

type transitionRec struct {
	name     string
	rank     int
	degraded bool
	detail   string
}

// TestTransitionSinkFiresOnEdges verifies the sink observes exactly the
// degraded/recovered edges — not every degraded poll — with the estimation
// mode in the detail.
func TestTransitionSinkFiresOnEdges(t *testing.T) {
	// Good, good, NaN, NaN, good: one degraded edge, one recovery edge.
	sen := &nanAt{scriptSensor: scriptSensor{name: "fake", states: []pmt.State{
		{TimeS: 0, EnergyJ: 0},
		{TimeS: 0.1, EnergyJ: 10},
		{TimeS: 0.2, EnergyJ: 20},
		{TimeS: 0.3, EnergyJ: 30},
		{TimeS: 0.4, EnergyJ: 40},
	}}, bad: map[int]bool{2: true, 3: true}}
	s := New(Config{GPUHz: 10})
	var got []transitionRec
	s.SetTransitionSink(func(name string, rank int, degraded bool, detail string) {
		got = append(got, transitionRec{name, rank, degraded, detail})
	})
	ch := s.Add("fake", 3, sen, 10)
	for i := 0; i < 5; i++ {
		ch.Poll()
	}
	want := []transitionRec{
		{"fake", 3, true, "model-extrapolation"},
		{"fake", 3, false, "primary-restored"},
	}
	if len(got) != len(want) {
		t.Fatalf("transitions = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("transition %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}

// TestTransitionSinkSilentWithoutEdges: a fully healthy run must never fire.
func TestTransitionSinkSilentWithoutEdges(t *testing.T) {
	sen := &scriptSensor{name: "fake", states: []pmt.State{
		{TimeS: 0, EnergyJ: 0},
		{TimeS: 0.1, EnergyJ: 10},
		{TimeS: 0.2, EnergyJ: 20},
	}}
	s := New(Config{GPUHz: 10})
	fired := 0
	s.SetTransitionSink(func(string, int, bool, string) { fired++ })
	ch := s.Add("fake", 0, sen, 10)
	for i := 0; i < 3; i++ {
		ch.Poll()
	}
	if fired != 0 {
		t.Fatalf("sink fired %d times on a healthy channel", fired)
	}
	// And a NaN before the baseline is established must not fire either:
	// there is no healthy state to transition from.
	sen2 := &nanAt{scriptSensor: scriptSensor{name: "f2", states: []pmt.State{
		{TimeS: 0, EnergyJ: math.NaN()},
		{TimeS: 0.1, EnergyJ: 10},
		{TimeS: 0.2, EnergyJ: 20},
	}}, bad: map[int]bool{0: true}}
	ch2 := s.Add("f2", 0, sen2, 10)
	for i := 0; i < 3; i++ {
		ch2.Poll()
	}
	if fired != 0 {
		t.Fatalf("sink fired %d times before the baseline existed", fired)
	}
}
