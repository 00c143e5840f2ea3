package sampler

import (
	"math"
	"reflect"
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

// tick is one held tick of a series, materialised.
type tick struct {
	TimeS, EnergyJ float64
	Degraded       bool
}

// ticks materialises a series, oldest first, through its accessors.
func ticks(s Series) []tick {
	var out []tick
	for i := 0; i < s.Len(); i++ {
		k := s.First + int64(i)
		flagged := false
		for _, r := range s.Degraded {
			flagged = flagged || r.From <= k && k < r.To
		}
		out = append(out, tick{TimeS: s.TimeS(i), EnergyJ: *s.Energies.At(i), Degraded: flagged})
	}
	return out
}

// samples materialises a channel's retained series, oldest first.
func samples(ch *Channel) []tick { return ticks(ch.Series()) }

// powerW is the mean power over the interval ending at held tick k.
func powerW(got []tick, k int) float64 {
	return (got[k].EnergyJ - got[k-1].EnergyJ) / (got[k].TimeS - got[k-1].TimeS)
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
	if p := powerW(got, 15); !approx(p, 200, 1e-9) {
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

// TestChannelReleaseIsNotADrop releases a channel's ticks as a reader does
// while the series grows — with degraded runs among them and a ring too
// small for the whole series — against a twin channel that keeps them: the
// released channel holds exactly the twin's ticks from the release point
// on, with the twin's flags clipped there, and drops none; a release past the newest tick empties the series, one at or
// before its first tick changes nothing.
func TestChannelReleaseIsNotADrop(t *testing.T) {
	const ringCap, polls = blocks.Len + 100, 20 * blocks.Len
	states := make([]pmt.State, polls)
	for i := range states {
		states[i] = pmt.State{TimeS: float64(i) * 0.1, EnergyJ: float64(i)}
		if i%97 > 90 {
			states[i].EnergyJ = math.NaN()
		}
	}
	s := New(Config{GPUHz: 10, RingCap: ringCap})
	ch := s.AddRank(0, &scriptSensor{name: "a", states: states})
	twin := New(Config{GPUHz: 10}).AddRank(0, &scriptSensor{name: "b", states: states})
	for i := range states {
		ch.Poll()
		twin.Poll()
		if i%300 != 299 {
			continue
		}
		k := int64(i - 40)
		ch.Release(k)
		got, want := ch.Series(), twin.Series()
		if got.First != k {
			t.Fatalf("after release at %d: first held tick %d", k, got.First)
		}
		from := int(k - want.First)
		if gotT, wantT := ticks(got), ticks(want)[from:]; !reflect.DeepEqual(gotT, wantT) {
			t.Fatalf("after release at %d: holds %v, want %v", k, gotT, wantT)
		}
		if len(got.Degraded) > 0 && got.Degraded[0].From < k {
			t.Fatalf("after release at %d: a degraded run starts at %d", k, got.Degraded[0].From)
		}
	}
	if st := ch.Stats(); st.Dropped != 0 || st.Ticks != twin.Stats().Ticks || st.DegradedTicks == 0 {
		t.Fatalf("released channel: %+v; twin %+v", st, twin.Stats())
	}
	first := ch.Series().First
	ch.Release(first - 5)
	if got := ch.Series(); got.First != first {
		t.Fatalf("a release before the first tick moved it %d -> %d", first, got.First)
	}
	ch.Release(first + 1e6)
	if got := ch.Series(); got.Len() != 0 || len(got.Degraded) != 0 {
		t.Fatalf("a release past the newest tick left %d ticks, %d degraded runs", got.Len(), len(got.Degraded))
	}
	var none *Channel
	none.Release(3)
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
	got := samples(ch)
	for k := 1; k < len(got); k++ {
		if p := powerW(got, k); p < 0 {
			t.Fatalf("negative power %g at t=%g after wrap", p, got[k].TimeS)
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
