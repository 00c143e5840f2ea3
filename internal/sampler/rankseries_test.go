package sampler

import (
	"reflect"
	"sort"
	"testing"

	"sphenergy/internal/pmt"
)

// parentRankSeries is RankSeries as it stood at commit 08cd155 — copy every
// channel out, append, sort every rank — kept as the reference the
// in-place version must reproduce exactly. A channel is copied out of its
// ring element by element, its times counted back from the next tick.
func parentRankSeries(s *Sampler) map[int][]tick {
	out := map[int][]tick{}
	for _, ch := range s.Channels() {
		if ch.rank < 0 {
			continue
		}
		k := ch.tick - int64(ch.ring.Len())
		var held []tick
		for i := range ch.ring.Len() {
			flagged := false
			for _, r := range ch.degraded {
				flagged = flagged || r.From <= k && k < r.To
			}
			held = append(held, tick{TimeS: float64(k) * ch.periodS, EnergyJ: *ch.ring.At(i), Degraded: flagged})
			k++
		}
		out[ch.rank] = append(out[ch.rank], held...)
	}
	for r := range out {
		sort.Slice(out[r], func(a, b int) bool { return out[r][a].TimeS < out[r][b].TimeS })
	}
	return out
}

// rampSensor reports a steadily rising counter, polls seconds apart.
func rampSensor(name string, polls int, stepS, watts float64) *scriptSensor {
	sen := &scriptSensor{name: name}
	for i := 0; i < polls; i++ {
		t := float64(i) * stepS
		sen.states = append(sen.states, pmt.State{TimeS: t, EnergyJ: watts * t})
	}
	return sen
}

// TestRankSeriesMatchesParent pins RankSeries to the parent's output for
// ranks with one channel each, beside a node channel it must leave out,
// with rings that have not wrapped, have wrapped, and hold nothing.
func TestRankSeriesMatchesParent(t *testing.T) {
	for _, tc := range []struct {
		name    string
		ringCap int
		polls   int
	}{
		{"unwrapped", 0, 40},
		{"wrapped", 16, 40},
		{"wrapped-many-times", 8, 9},
		{"empty", 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New(Config{GPUHz: 100, NodeHz: 10, RingCap: tc.ringCap})
			chans := []*Channel{
				s.add("rank0:gpu", 0, rampSensor("gpu", tc.polls+1, 0.05, 200), 100),
				s.add("rank1:gpu", 1, rampSensor("gpu", tc.polls+1, 0.05, 250), 100),
				s.add("node0", -1, rampSensor("node", tc.polls+1, 0.05, 900), 10),
				s.add("rank2:idle", 2, rampSensor("idle", 1, 1, 0), 100),
			}
			for i := 0; i < tc.polls; i++ {
				for _, ch := range chans[:3] {
					ch.Poll()
				}
			}
			want := parentRankSeries(s)
			series := s.RankSeries()
			got := map[int][]tick{}
			for r, ser := range series {
				got[r] = ticks(ser)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("RankSeries differs from the parent's\n got: %v\nwant: %v", got, want)
			}
			if _, node := got[-1]; node || len(got) != 3 {
				t.Errorf("series for ranks %v, want exactly 0, 1 and 2", reflect.ValueOf(got).MapKeys())
			}
			if tc.polls == 0 {
				return
			}
			if tc.ringCap > 0 && chans[0].Stats().Dropped == 0 {
				t.Fatal("ring did not wrap; the case does not test what it names")
			}
			for r, series := range got {
				if !sort.SliceIsSorted(series, func(a, b int) bool { return series[a].TimeS < series[b].TimeS }) {
					t.Errorf("rank %d series out of time order", r)
				}
			}
		})
	}
}

// TestRankSeriesCopiesOnce gates the shape without a clock: RankSeries
// copies no tick. What it allocates (the map) does not grow with the
// series, and a series reads the channel's own ring: a tick rewritten in
// the ring reads rewritten through the series.
func TestRankSeriesCopiesOnce(t *testing.T) {
	const ranks = 8
	build := func(polls int) *Sampler {
		s := New(Config{GPUHz: 100})
		for r := 0; r < ranks; r++ {
			ch := s.add("gpu", r, rampSensor("gpu", polls, 10, 200), 100)
			for i := 0; i < polls; i++ {
				ch.Poll()
			}
		}
		return s
	}
	long, short := build(3), build(1)
	var series, none map[int]Series
	now := testing.AllocsPerRun(5, func() { series = long.RankSeries() })
	empty := testing.AllocsPerRun(5, func() { none = short.RankSeries() })
	held, heldNone := series[0], none[0]
	if held.Len() < 2000 || heldNone.Len() != 0 {
		t.Fatalf("rank 0 holds %d ticks and %d, want a long series and an empty one", held.Len(), heldNone.Len())
	}
	if now != empty {
		t.Errorf("RankSeries allocates %.0f times for %d ranks of %d ticks, %.0f for empty ones; want no allocation that grows with the series", now, ranks, held.Len(), empty)
	}
	for r, ser := range series {
		ch := long.Channels()[r]
		for _, i := range []int{0, ser.Len() / 2, ser.Len() - 1} {
			*ch.ring.At(i) = -1
			if e := *ser.Energies.At(i); e != -1 {
				t.Fatalf("rank %d tick %d: the series reads %g after the ring's tick was rewritten; it holds a copy", r, i, e)
			}
		}
	}
}

// TestWrappedSeriesFirstAndDegradedRuns wraps a ring past stretches of
// failed reads: the first held tick is the ticks emitted minus the ticks
// held, and the degraded runs below it are clipped — dropped when they end
// at or below it, cut short when they straddle it.
func TestWrappedSeriesFirstAndDegradedRuns(t *testing.T) {
	states := make([]pmt.State, 51)
	for i := range states {
		states[i] = pmt.State{TimeS: float64(i) * 0.1, EnergyJ: float64(i)}
	}
	// Poll i emits tick i (the baseline poll none, the next ticks 0 and 1);
	// a failed read flags its tick and the recovery's.
	sen := &nanAt{scriptSensor: scriptSensor{name: "fake", states: states},
		bad: map[int]bool{3: true, 4: true, 5: true, 38: true, 42: true, 47: true}}
	s := New(Config{GPUHz: 10, RingCap: 8})
	ch := s.add("fake", 0, sen, 10)
	for range states {
		ch.Poll()
	}
	ser := s.RankSeries()[0]
	st := ch.Stats()
	if st.Ticks != 51 || ser.Len() != 8 {
		t.Fatalf("emitted %d ticks and holds %d, want 51 and 8", st.Ticks, ser.Len())
	}
	if want := int64(st.Ticks) - int64(ser.Len()); ser.First != want {
		t.Fatalf("first held tick %d, want ticks emitted minus held, %d", ser.First, want)
	}
	if want := []TickRun{{43, 44}, {47, 49}}; !reflect.DeepEqual(ser.Degraded, want) {
		t.Fatalf("degraded runs %v, want %v", ser.Degraded, want)
	}
	if st.DegradedTicks != 10 {
		t.Fatalf("DegradedTicks = %d, want 10 (three outages with their recoveries)", st.DegradedTicks)
	}
	for i := 0; i < ser.Len(); i++ {
		if got, want := ser.TimeS(i), float64(43+i)*0.1; got != want {
			t.Fatalf("held tick %d at %v, want %v", i, got, want)
		}
	}
}
