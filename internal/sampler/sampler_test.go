package sampler

import (
	"math"
	"sync"
	"testing"

	"sphenergy/internal/blocks"
	"sphenergy/internal/pmt"
)

// scriptSensor replays a fixed sequence of states, then repeats the last.
type scriptSensor struct {
	name   string
	states []pmt.State
	i      int
}

func (s *scriptSensor) Name() string { return s.name }

func (s *scriptSensor) Read() pmt.State {
	st := s.states[s.i]
	if s.i < len(s.states)-1 {
		s.i++
	}
	return st
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// samples copies a channel's retained series out of its ring, oldest first.
func samples(ch *Channel) []Sample {
	if ch == nil {
		return nil
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return ch.ring.AppendTo([]Sample{})
}

func TestChannelTickGridAndLerp(t *testing.T) {
	// 100 W constant between polls at t=0 and t=0.1, then 200 W to t=0.2.
	sen := &scriptSensor{name: "fake", states: []pmt.State{
		{TimeS: 0, EnergyJ: 0},
		{TimeS: 0.1, EnergyJ: 10},
		{TimeS: 0.2, EnergyJ: 30},
	}}
	s := New(Config{GPUHz: 100})
	ch := s.add("fake", 0, sen, 100)
	ch.Poll()
	ch.Poll()
	ch.Poll()

	got := samples(ch)
	// Ticks at 0, 0.01, ..., 0.2 — 21 samples.
	if len(got) != 21 {
		t.Fatalf("samples = %d, want 21", len(got))
	}
	for i, smp := range got {
		wantT := float64(i) * 0.01
		if !approx(smp.TimeS, wantT, 1e-9) {
			t.Fatalf("sample %d time = %g, want %g", i, smp.TimeS, wantT)
		}
		var wantE float64
		if wantT <= 0.1 {
			wantE = 100 * wantT
		} else {
			wantE = 10 + 200*(wantT-0.1)
		}
		if !approx(smp.EnergyJ, wantE, 1e-9) {
			t.Fatalf("sample %d energy = %g, want %g", i, smp.EnergyJ, wantE)
		}
	}
	// Mean power across a tick in the second segment must be 200 W.
	if p := got[15].PowerW; !approx(p, 200, 1e-9) {
		t.Fatalf("tick power = %g, want 200", p)
	}
	if a := ch.AccumJ(); !approx(a, 30, 1e-12) {
		t.Fatalf("accum = %g, want 30", a)
	}
}

func TestChannelRingOverflow(t *testing.T) {
	states := []pmt.State{{TimeS: 0, EnergyJ: 0}}
	// 1 sample per poll at 10 Hz over 5 s → 50 ticks into a cap-8 ring.
	for i := 1; i <= 50; i++ {
		states = append(states, pmt.State{TimeS: float64(i) * 0.1, EnergyJ: float64(i)})
	}
	sen := &scriptSensor{name: "fake", states: states}
	s := New(Config{NodeHz: 10, RingCap: 8})
	ch := s.add("fake", -1, sen, 10)
	for range states {
		ch.Poll()
	}
	got := samples(ch)
	if len(got) != 8 {
		t.Fatalf("retained = %d, want 8", len(got))
	}
	// Oldest retained sample is tick 43 (50 emitted after the baseline at
	// tick 0 counts as a tick too: ticks 0..50 = 51, minus 8 retained).
	st := ch.Stats()
	if st.Ticks != 51 {
		t.Fatalf("ticks = %d, want 51", st.Ticks)
	}
	if st.Dropped != 43 {
		t.Fatalf("dropped = %d, want 43", st.Dropped)
	}
	for i := 1; i < len(got); i++ {
		if got[i].TimeS <= got[i-1].TimeS {
			t.Fatalf("retained series out of order at %d", i)
		}
	}
	// Accumulation is unaffected by ring overflow.
	if !approx(ch.AccumJ(), 50, 1e-9) {
		t.Fatalf("accum = %g, want 50", ch.AccumJ())
	}
}

// TestChannelRingWrapsAcrossBlocks wraps a ring of two full blocks and a
// ragged third several times over: what stays is exactly the newest cap
// ticks, in order, with every older one counted as dropped.
func TestChannelRingWrapsAcrossBlocks(t *testing.T) {
	const ringCap, ticks = 2*blocks.Len + 452, 3*(2*blocks.Len+452) + 77
	states := make([]pmt.State, ticks)
	for i := range states {
		states[i] = pmt.State{TimeS: float64(i) * 0.1, EnergyJ: float64(i)}
	}
	ch := New(Config{NodeHz: 10, RingCap: ringCap}).add("fake", -1, &scriptSensor{name: "fake", states: states}, 10)
	for i := range states {
		ch.Poll()
		if i == ringCap/2 || i == ringCap-1 {
			// Before the first wrap the series is everything emitted so far.
			if got := samples(ch); len(got) != i+1 || got[0].EnergyJ != 0 || got[i].EnergyJ != float64(i) {
				t.Fatalf("after %d ticks: %d samples retained, first %g J, last %g J", i+1, len(got), got[0].EnergyJ, got[len(got)-1].EnergyJ)
			}
		}
	}
	got := samples(ch)
	if len(got) != ringCap {
		t.Fatalf("retained = %d, want %d", len(got), ringCap)
	}
	for i, s := range got {
		if want := float64(ticks - ringCap + i); s.EnergyJ != want {
			t.Fatalf("sample %d holds tick %g, want tick %g", i, s.EnergyJ, want)
		}
	}
	if st := ch.Stats(); st.Ticks != ticks || st.Dropped != ticks-ringCap {
		t.Fatalf("ticks %d dropped %d, want %d and %d", st.Ticks, st.Dropped, ticks, ticks-ringCap)
	}
}

func TestChannelWrapClamp(t *testing.T) {
	// Counter resets between polls (wrap): the negative delta must clamp
	// to zero, never driving the accumulator backwards.
	sen := &scriptSensor{name: "fake", states: []pmt.State{
		{TimeS: 0, EnergyJ: 1000},
		{TimeS: 1, EnergyJ: 1100},
		{TimeS: 2, EnergyJ: 5}, // reset
		{TimeS: 3, EnergyJ: 55},
	}}
	s := New(Config{NodeHz: 1})
	ch := s.add("fake", -1, sen, 1)
	for range 4 {
		ch.Poll()
	}
	// 100 J + 0 (clamped) + 50 J.
	if a := ch.AccumJ(); !approx(a, 150, 1e-9) {
		t.Fatalf("accum = %g, want 150", a)
	}
	for _, smp := range samples(ch) {
		if smp.PowerW < 0 {
			t.Fatalf("negative power %g at t=%g after wrap", smp.PowerW, smp.TimeS)
		}
	}
}

func TestChannelStalenessStats(t *testing.T) {
	sen := &scriptSensor{name: "fake", states: []pmt.State{
		{TimeS: 0, EnergyJ: 0},
		{TimeS: 0.1, EnergyJ: 1},
		{TimeS: 0.3, EnergyJ: 2}, // 0.2 s gap
		{TimeS: 0.35, EnergyJ: 3},
	}}
	s := New(Config{GPUHz: 100})
	ch := s.add("fake", 0, sen, 100)
	for range 4 {
		ch.Poll()
	}
	st := ch.Stats()
	if st.Polls != 4 {
		t.Fatalf("polls = %d, want 4", st.Polls)
	}
}

// TestRatesByRole: rank sensors tick at the in-band rate, node sensors at
// the node rate.
func TestRatesByRole(t *testing.T) {
	s := New(Config{GPUHz: 50})
	sen := &scriptSensor{name: "x", states: []pmt.State{{}}}
	for _, c := range []struct {
		ch   *Channel
		want float64
	}{
		{s.AddRank(0, sen), 50},
		{s.AddNode(0, sen), DefaultNodeHz},
	} {
		if r := 1 / c.ch.periodS; !approx(r, c.want, 1e-9) {
			t.Errorf("%s: rate = %g, want %g", c.ch.Name(), r, c.want)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var s *Sampler
	var ch *Channel
	ch.Poll()
	s.PollAll()
	s.PollNodes()
	if s.AddRank(0, pmt.Dummy{}) != nil || s.AddNode(0, pmt.Dummy{}) != nil {
		t.Fatal("nil sampler AddRank/AddNode should return nil channel")
	}
	if s.Channels() != nil {
		t.Fatal("nil accessors should return nil")
	}
	if ch.AccumJ() != 0 || s.NodeAccumJ() != 0 {
		t.Fatal("nil accumulators should be 0")
	}
}

func TestConcurrentChannels(t *testing.T) {
	// Each goroutine owns one channel — the runner's usage pattern. Under
	// -race this validates the locking discipline.
	s := New(Config{GPUHz: 100, NodeHz: 10})
	var wg sync.WaitGroup
	for r := range 4 {
		states := []pmt.State{{TimeS: 0, EnergyJ: 0}}
		for i := 1; i <= 200; i++ {
			states = append(states, pmt.State{TimeS: float64(i) * 0.01, EnergyJ: float64(i)})
		}
		ch := s.add("gpu", r, &scriptSensor{name: "gpu", states: states}, 100)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range states {
				ch.Poll()
			}
		}()
	}
	wg.Wait()
	series := s.RankSeries()
	if len(series) != 4 {
		t.Fatalf("ranks = %d, want 4", len(series))
	}
	for r, ss := range series {
		if len(ss) == 0 {
			t.Fatalf("rank %d has no samples", r)
		}
	}
	got := 0.0
	for _, ch := range s.Channels() {
		got += ch.AccumJ()
	}
	if !approx(got, 800, 1e-6) {
		t.Fatalf("rank accum = %g, want 800", got)
	}
}
