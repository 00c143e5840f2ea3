package traceanalysis

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// analyzeOracle is Analyze as it was written before it read pointer-free
// records: per-rank maps of Span copies, re-sorted with sort.Slice, the
// critical path summed per rank in barrier order as Render once summed the
// list of segments the analysis returned. Analyze must return what it
// returns, to the bit.
func analyzeOracle(spans []Span, opt Options) *Analysis {
	opt = opt.defaulted()
	a := &Analysis{}

	var waits []Span
	perRank := map[int][]Span{} // non-wait rank-track spans
	ranks := map[int]*RankStat{}
	stat := func(r int) *RankStat {
		st, ok := ranks[r]
		if !ok {
			st = &RankStat{Rank: r}
			ranks[r] = st
		}
		return st
	}
	for _, s := range spans {
		if e := s.EndS(); e > a.WallS {
			a.WallS = e
		}
		if s.Rank == GlobalRank {
			continue
		}
		if s.isWait() {
			waits = append(waits, s)
			stat(s.Rank).WaitS += s.DurS
			continue
		}
		perRank[s.Rank] = append(perRank[s.Rank], s)
		stat(s.Rank)
	}
	for r, ss := range perRank {
		stat(r).BusyS = intervalUnionOracle(ss)
	}

	sort.Slice(waits, func(i, j int) bool { return waits[i].EndS() < waits[j].EndS() })
	ends := map[int][]float64{}
	for r, ss := range perRank {
		es := make([]float64, len(ss))
		for i, s := range ss {
			es[i] = s.EndS()
		}
		sort.Float64s(es)
		ends[r] = es
	}

	prevT := math.Inf(-1)
	for i := 0; i < len(waits); {
		j := i + 1
		barrierT := waits[i].EndS()
		for j < len(waits) && waits[j].EndS()-barrierT <= barrierEpsS {
			if e := waits[j].EndS(); e > barrierT {
				barrierT = e
			}
			j++
		}
		a.BarrierCount++
		waitS := 0.0
		waiting := map[int]bool{}
		for _, w := range waits[i:j] {
			waitS += w.DurS
			waiting[w.Rank] = true
		}
		var critical []int
		for r, es := range ends {
			if waiting[r] {
				continue
			}
			if hasEndIn(es, prevT, barrierT+barrierEpsS) {
				critical = append(critical, r)
			}
		}
		sort.Ints(critical)
		if len(critical) > 0 {
			share := waitS / float64(len(critical))
			for _, r := range critical {
				st := stat(r)
				st.CausedWaitS += share
				st.CriticalCount++
			}
			a.AttributedWaitS += waitS
		}
		a.TotalWaitS += waitS

		start := prevT
		if math.IsInf(prevT, -1) {
			start = 0
		}
		if len(critical) == 1 {
			st := stat(critical[0])
			st.PathS += barrierT - start
			st.PathSegments++
		}
		prevT = barrierT
		i = j
	}

	for _, st := range ranks {
		a.Ranks = append(a.Ranks, *st)
	}
	sort.Slice(a.Ranks, func(i, j int) bool { return a.Ranks[i].Rank < a.Ranks[j].Rank })

	a.Stragglers = append([]RankStat(nil), a.Ranks...)
	sort.SliceStable(a.Stragglers, func(i, j int) bool {
		return a.Stragglers[i].CausedWaitS > a.Stragglers[j].CausedWaitS
	})
	if len(a.Stragglers) > opt.TopK {
		a.Stragglers = a.Stragglers[:opt.TopK]
	}
	return a
}

func intervalUnionOracle(ss []Span) float64 {
	if len(ss) == 0 {
		return 0
	}
	sorted := append([]Span(nil), ss...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].StartS < sorted[j].StartS })
	total := 0.0
	curStart, curEnd := sorted[0].StartS, sorted[0].EndS()
	for _, s := range sorted[1:] {
		if s.StartS > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s.StartS, s.EndS()
			continue
		}
		if e := s.EndS(); e > curEnd {
			curEnd = e
		}
	}
	return total + (curEnd - curStart)
}

// checkAnalyzeOracle fails unless Analyze and the oracle agree on spans.
// DeepEqual tells nil from empty and compares every float by value, so the
// sums over tied waits must come out in the same order.
func checkAnalyzeOracle(t *testing.T, spans []Span) {
	t.Helper()
	for _, opt := range []Options{{}, {TopK: 1}} {
		want := analyzeOracle(spans, opt)
		if got := Analyze(spans, opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("Analyze(%d spans, %+v) = %+v\nthe oracle: %+v", len(spans), opt, got, want)
		}
	}
}

// TestAnalyzeMatchesOracle holds Analyze to the oracle on a long recorded
// trace (8 ranks, 300 steps) and on random span sets, ranks and the global
// track interleaved, whose times come from few values so that starts, ends
// and whole barriers tie: from a coarse clock with some durations negative,
// and from a handful of decimals, where s + d = d + s ties the ends of waits
// whose durations differ, and a barrier's wait sum shows their order.
// FuzzLoad holds it on every scanner seed.
func TestAnalyzeMatchesOracle(t *testing.T) {
	spans, err := Load(recordedTrace(t, 300))
	if err != nil {
		t.Fatal(err)
	}
	checkAnalyzeOracle(t, spans)

	rng := rand.New(rand.NewSource(1))
	decimals := []float64{0.1, 0.2, 0.3, 0.7, 1.3, 2.9}
	for n := 0; n < 200; n++ {
		spans := make([]Span, rng.Intn(300))
		for i := range spans {
			s := Span{Rank: rng.Intn(7) - 1, Cat: "kernel", Name: "k",
				StartS: float64(rng.Intn(40)) * 0.25, DurS: float64(rng.Intn(12)-1) * 0.125}
			if n%2 == 1 {
				s.StartS, s.DurS = decimals[rng.Intn(len(decimals))], decimals[rng.Intn(len(decimals))]
			}
			if rng.Intn(3) == 0 {
				s.Cat, s.Name = "mpi", "barrier-wait"
			}
			spans[i] = s
		}
		checkAnalyzeOracle(t, spans)
	}
}

func BenchmarkAnalyze(b *testing.B) {
	spans, err := Load(recordedTrace(b, 300))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if a := Analyze(spans, Options{}); a.BarrierCount == 0 {
			b.Fatal("no barriers")
		}
	}
}
