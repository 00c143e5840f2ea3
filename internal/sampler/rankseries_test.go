package sampler

import (
	"reflect"
	"sort"
	"testing"

	"sphenergy/internal/pmt"
)

// parentRankSeries is RankSeries as it stood at commit 08cd155 — copy every
// channel out, append, sort every rank — kept as the reference the
// zero-copy version must reproduce exactly.
func parentRankSeries(s *Sampler) map[int][]Sample {
	out := map[int][]Sample{}
	for _, ch := range s.Channels() {
		if ch.rank < 0 {
			continue
		}
		out[ch.rank] = append(out[ch.rank], samples(ch)...)
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
			got := s.RankSeries()
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

// TestRankSeriesCopiesOnce gates the shape without a clock, against the
// parent's in the same binary (so the race detector's own allocations
// cancel): one allocation per single-channel rank where the parent made a
// copy, a regrown append and a sort's closures.
func TestRankSeriesCopiesOnce(t *testing.T) {
	const ranks = 8
	s := New(Config{GPUHz: 100})
	for r := 0; r < ranks; r++ {
		ch := s.add("gpu", r, rampSensor("gpu", 3, 10, 200), 100)
		for i := 0; i < 3; i++ {
			ch.Poll()
		}
	}
	var series map[int][]Sample
	now := testing.AllocsPerRun(5, func() { series = s.RankSeries() })
	before := testing.AllocsPerRun(5, func() { series = parentRankSeries(s) })
	if len(series[0]) < 2000 {
		t.Fatalf("rank 0 holds %d samples, want a long series", len(series[0]))
	}
	if now > before-2*ranks {
		t.Errorf("RankSeries allocates %.0f times for %d single-channel ranks, the parent %.0f; want at least two fewer per rank", now, ranks, before)
	}
}
