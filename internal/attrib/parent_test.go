package attrib

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

// What follows, down to parentBuild, is the join as it stood at commit
// 7955eee — two binary searches per span, rows in a string-keyed map, fed
// from the Spans() slice — kept verbatim (identifiers prefixed) as the
// reference the cursor join must reproduce to the last bit.

// parentSeries evaluates cumulative sampled energy at arbitrary times by
// linear interpolation over one rank's tick samples.
type parentSeries struct {
	times    []float64
	energies []float64
	// Degraded-interval index: degSeg[i] flags the interval ending at
	// times[i] (a degraded tick covers the window since the previous
	// tick); degPrefix[i] is the cumulative degraded time up to times[i],
	// making span overlap an O(log n) query.
	degSeg    []bool
	degPrefix []float64
	degAny    bool
}

func newParentSeries(samples []sampler.Sample) *parentSeries {
	es := &parentSeries{
		times:    make([]float64, len(samples)),
		energies: make([]float64, len(samples)),
	}
	for i, s := range samples {
		es.times[i] = s.TimeS
		es.energies[i] = s.EnergyJ
		if s.Degraded {
			es.degAny = true
		}
	}
	if es.degAny {
		es.degSeg = make([]bool, len(samples))
		es.degPrefix = make([]float64, len(samples))
		for i := 1; i < len(samples); i++ {
			es.degSeg[i] = samples[i].Degraded
			es.degPrefix[i] = es.degPrefix[i-1]
			if es.degSeg[i] {
				es.degPrefix[i] += es.times[i] - es.times[i-1]
			}
		}
	}
	return es
}

// degAt returns the cumulative degraded time up to t.
func (es *parentSeries) degAt(t float64) float64 {
	n := len(es.times)
	if !es.degAny || n == 0 || t <= es.times[0] {
		return 0
	}
	if t >= es.times[n-1] {
		return es.degPrefix[n-1]
	}
	i := sort.SearchFloat64s(es.times, t) // first index with times[i] >= t
	if es.times[i] == t {
		return es.degPrefix[i]
	}
	p := es.degPrefix[i-1]
	if es.degSeg[i] {
		p += t - es.times[i-1]
	}
	return p
}

// degradedOverlap returns the degraded time inside [startS, endS].
// Spans too short to contain an interior sample interval are estimated
// from their *neighbor* intervals (atStart extends the preceding one,
// atEnd the following one), so for those the query widens to the
// borrowed intervals: such a span rests on estimated data even when its
// own time window is clean. The result is capped at the span duration
// so DegradedPct stays a fraction of the span.
func (es *parentSeries) degradedOverlap(startS, endS float64) float64 {
	if !es.degAny || endS <= startS {
		return 0
	}
	n := len(es.times)
	lo := sort.SearchFloat64s(es.times, startS)
	hi := sort.Search(n, func(i int) bool { return es.times[i] > endS }) - 1
	if lo < n && hi >= 0 && hi > lo {
		// Interior-interval spans (integrate's exact path) draw only on
		// samples inside their window; strict overlap is the whole story.
		return es.degAt(endS) - es.degAt(startS)
	}
	padLo, padHi := startS, endS
	if i := es.locate(startS); i > 0 {
		padLo = es.times[i-1]
	}
	if i := es.locate(endS); i >= 0 && i+2 < n {
		padHi = es.times[i+2]
	}
	return math.Min(es.degAt(padHi)-es.degAt(padLo), endS-startS)
}

// locate returns the interval index i with times[i] <= t < times[i+1],
// or -1 when t is outside the series (including the exact last point).
func (es *parentSeries) locate(t float64) int {
	n := len(es.times)
	if n < 2 || t < es.times[0] || t >= es.times[n-1] {
		return -1
	}
	// First index with time > t, so the interval starts one before it.
	i := sort.SearchFloat64s(es.times, t)
	if i < n && es.times[i] == t {
		return i
	}
	return i - 1
}

// powerOf returns the mean power across interval i.
func (es *parentSeries) powerOf(i int) float64 {
	dt := es.times[i+1] - es.times[i]
	if dt <= 0 {
		return 0
	}
	return (es.energies[i+1] - es.energies[i]) / dt
}

// clamp bounds an energy estimate inside interval i — the sampled series
// is monotone (the sampler clamps negative deltas), so the true value
// cannot leave the interval's energy range.
func (es *parentSeries) clamp(e float64, i int) float64 {
	return math.Min(math.Max(e, es.energies[i]), es.energies[i+1])
}

// atStart estimates cumulative energy at a span's start time. A plain
// lerp across the containing sample interval systematically smears span
// energy into the preceding idle (the cumulative-energy curve is convex
// at a low→high power transition), biasing every attribution low. The
// span boundary time is known exactly from the tracer, so the estimator
// assumes the power transition happens there and extends the *preceding*
// interval's observed power up to it — Score-P-style timestamp-aligned
// attribution. Out-of-window times clamp to the series' ends, surfacing
// sampler coverage gaps as attribution error instead of hiding them by
// extrapolation.
func (es *parentSeries) atStart(t float64) float64 {
	n := len(es.times)
	if n == 0 {
		return 0
	}
	i := es.locate(t)
	if i < 0 {
		if t < es.times[0] {
			return es.energies[0]
		}
		return es.energies[n-1]
	}
	before := i
	if i > 0 {
		before = i - 1
	}
	return es.clamp(es.energies[i]+es.powerOf(before)*(t-es.times[i]), i)
}

// atEnd estimates cumulative energy at a span's end time, mirroring
// atStart: the *following* interval's power is extended backwards to the
// boundary.
func (es *parentSeries) atEnd(t float64) float64 {
	n := len(es.times)
	if n == 0 {
		return 0
	}
	i := es.locate(t)
	if i < 0 {
		if t < es.times[0] {
			return es.energies[0]
		}
		return es.energies[n-1]
	}
	after := i
	if i+2 < n {
		after = i + 1
	}
	return es.clamp(es.energies[i+1]-es.powerOf(after)*(es.times[i+1]-t), i)
}

// integrate returns the sampled energy across [startS, endS]. When the
// span contains at least one full sample interval, its interior energy is
// taken verbatim and the partial edge intervals are filled by extending
// the nearest *interior* interval's power outward — within the span the
// power regime is the span's own, so this is exact for constant-power
// kernels however short the surrounding idle gaps are. Spans too short to
// contain an interior interval fall back to the neighbor-interval
// boundary estimate of atStart/atEnd.
func (es *parentSeries) integrate(startS, endS float64) float64 {
	if endS <= startS {
		return 0
	}
	n := len(es.times)
	// lo: first tick at or after startS; hi: last tick at or before endS.
	lo := sort.SearchFloat64s(es.times, startS)
	hi := sort.Search(n, func(i int) bool { return es.times[i] > endS }) - 1
	if lo < n && hi >= 0 && hi > lo {
		interior := es.energies[hi] - es.energies[lo]
		startEdge := 0.0
		if lo > 0 {
			startEdge = es.powerOf(lo) * (es.times[lo] - startS)
			startEdge = math.Min(startEdge, es.energies[lo]-es.energies[lo-1])
		}
		endEdge := 0.0
		if hi+1 < n {
			endEdge = es.powerOf(hi-1) * (endS - es.times[hi])
			endEdge = math.Min(endEdge, es.energies[hi+1]-es.energies[hi])
		}
		return interior + startEdge + endEdge
	}
	return math.Max(0, es.atEnd(endS)-es.atStart(startS))
}

// parentRowKey groups spans into table rows.
type parentRowKey struct {
	rank int
	name string
}

// parentBuild joins spans against sampled series. Only spans in the categories
// "kernel" (ground truth in the "energy_j" arg) and "function" (ground
// truth in the "gpu_j" arg) on rank tracks participate; everything else is
// ignored.
func parentBuild(spans []telemetry.SpanEvent, series map[int][]sampler.Sample, opts Options) *Attribution {
	opts = opts.defaulted()
	a := &Attribution{Opts: opts}

	es := map[int]*parentSeries{}
	for rank, ss := range series {
		es[rank] = newParentSeries(ss)
	}

	kernels := map[parentRowKey]*Row{}
	functions := map[parentRowKey]*Row{}
	for _, sp := range spans {
		if sp.Track < 0 || sp.Instant {
			continue
		}
		var table map[parentRowKey]*Row
		var truthKey string
		switch sp.Category {
		case "kernel":
			table, truthKey = kernels, "energy_j"
		case "function":
			table, truthKey = functions, "gpu_j"
		default:
			continue
		}
		s := es[sp.Track]
		if s == nil {
			continue
		}
		key := parentRowKey{rank: sp.Track, name: sp.Name}
		row, ok := table[key]
		if !ok {
			row = &Row{Rank: sp.Track, Name: sp.Name}
			table[key] = row
		}
		row.Calls++
		row.TimeS += sp.DurS
		truth, _ := sp.Arg(truthKey)
		row.ModelJ += truth
		row.SampledJ += s.integrate(sp.StartS, sp.EndS())
		row.degradedS += s.degradedOverlap(sp.StartS, sp.EndS())
		if clock, ok := sp.Arg("clock_mhz"); ok {
			row.clockWeight += clock * sp.DurS
		}
	}

	minDur := 0.0
	if opts.RateHz > 0 {
		minDur = opts.MinResolvablePeriods / opts.RateHz
	}
	finish := func(table map[parentRowKey]*Row) []Row {
		out := make([]Row, 0, len(table))
		for _, r := range table {
			if r.Calls > 0 {
				r.MeanCallS = r.TimeS / float64(r.Calls)
			}
			r.ErrPct = relErrPct(r.SampledJ, r.ModelJ)
			r.EDPJs = r.SampledJ * r.TimeS
			r.Resolvable = minDur == 0 || r.MeanCallS >= minDur
			if r.TimeS > 0 {
				if r.clockWeight > 0 {
					r.ClockMHz = r.clockWeight / r.TimeS
				}
				r.DegradedPct = 100 * r.degradedS / r.TimeS
			}
			r.Degraded = r.degradedS > 0
			out = append(out, *r)
		}
		sort.Slice(out, func(a, b int) bool {
			if out[a].Rank != out[b].Rank {
				return out[a].Rank < out[b].Rank
			}
			if out[a].ModelJ != out[b].ModelJ {
				return out[a].ModelJ > out[b].ModelJ
			}
			return out[a].Name < out[b].Name
		})
		return out
	}
	a.Kernels = finish(kernels)
	a.Functions = finish(functions)

	// Rank summaries over kernel rows.
	perRank := map[int]*RankSummary{}
	for _, r := range a.Kernels {
		rs, ok := perRank[r.Rank]
		if !ok {
			rs = &RankSummary{Rank: r.Rank, Samples: len(series[r.Rank])}
			perRank[r.Rank] = rs
		}
		rs.ModelJ += r.ModelJ
		rs.SampledJ += r.SampledJ
	}
	for _, rs := range perRank {
		rs.ErrPct = relErrPct(rs.SampledJ, rs.ModelJ)
		a.Ranks = append(a.Ranks, *rs)
	}
	sort.Slice(a.Ranks, func(i, j int) bool { return a.Ranks[i].Rank < a.Ranks[j].Rank })

	// The two tolerance gates, over clean rows only: degraded rows carry
	// estimated energy and are classified instead of gated.
	var wErr, wSum float64
	pass := true
	for _, r := range a.Kernels {
		if r.Degraded {
			a.Degraded = true
			a.DegradedRows++
			a.DegradedEnergyJ += r.ModelJ
			continue
		}
		wErr += math.Abs(r.ErrPct) * r.ModelJ
		wSum += r.ModelJ
		if r.Resolvable {
			if e := math.Abs(r.ErrPct); e > a.MaxResolvableErrPct {
				a.MaxResolvableErrPct = e
			}
		}
	}
	if wSum > 0 {
		a.AggErrPct = wErr / wSum
	}
	if a.MaxResolvableErrPct > opts.TolerancePct {
		pass = false
	}
	if a.AggErrPct > opts.TolerancePct {
		pass = false
	}
	a.Pass = pass && len(a.Kernels) > 0
	return a
}

// joinCase is one randomly drawn attribution input.
type joinCase struct {
	tr     *telemetry.Tracer
	series map[int][]sampler.Sample
}

// drawJoinCase records a few ranks' worth of kernels inside functions —
// interned and by name, some instants and foreign categories among them —
// against series that may be degraded in stretches, merged from two
// channels (every tick time twice), shorter than the run or empty; a third
// of the spans start and end exactly on ticks. With disorder, spans are also recorded out of time order, overlapping, of zero
// or negative length and outside the series, which is what sends the
// cursors back to binary search.
func drawJoinCase(rng *rand.Rand, disorder bool) joinCase {
	const ranks = 3
	c := joinCase{tr: telemetry.NewTracer(ranks), series: map[int][]sampler.Sample{}}
	names := []string{"density", "iad", "momentum", "x<y"}
	for r := 0; r < ranks; r++ {
		period := []float64{0.01, 0.1, 0.25}[rng.Intn(3)]
		ticks := rng.Intn(400)
		if rng.Intn(8) == 0 {
			ticks = rng.Intn(3)
		}
		degFrom, degTo := rng.Intn(ticks+1), rng.Intn(ticks+1)
		merged := rng.Intn(4) == 0
		var ss []sampler.Sample
		e := 0.0
		for i := 0; i < ticks; i++ {
			e += period * (50 + 300*rng.Float64())
			s := sampler.Sample{TimeS: float64(i) * period, EnergyJ: e, Degraded: degFrom <= i && i < degTo}
			if ss = append(ss, s); merged {
				ss = append(ss, s)
			}
		}
		if rng.Intn(6) != 0 {
			c.series[r] = ss
		}
		end := float64(ticks) * period
		now := rng.Float64() * period
		for now < end*1.1+period {
			fnStart := now
			fn := names[rng.Intn(len(names))]
			for k := rng.Intn(4); k >= 0; k-- {
				dur := period * math.Pow(10, 2*rng.Float64()-1.5)
				start := now
				if rng.Intn(3) == 0 {
					// Ends that fall on tick times exactly (for certain when
					// the period is a binary fraction): where "at or after"
					// and "after" part ways.
					start = period * math.Ceil(start/period)
					dur = period * float64(rng.Intn(4))
				}
				if disorder {
					switch rng.Intn(6) {
					case 0:
						start = rng.Float64()*end*1.4 - 0.2*end
					case 1:
						dur = 0
					case 2:
						dur = -dur
					}
				}
				name := names[rng.Intn(len(names))]
				switch rng.Intn(6) {
				case 0:
					c.tr.Complete(r, "kernel", name, start, dur, telemetry.Float("energy_j", dur*200), telemetry.Int("clock_mhz", 1005))
				case 1:
					c.tr.Instant(r, "kernel", name, start)
				case 2:
					c.tr.Complete(r, "mpi", name, start, dur)
				default:
					c.tr.CompleteRef(r, c.tr.Intern("kernel", name, "clock_mhz", "energy_j"), start, dur, 1410, dur*250)
				}
				now += dur + period*rng.Float64()*0.3
			}
			c.tr.CompleteRef(r, c.tr.Intern("function", fn, "gpu_j", "comm_s"), fnStart, now-fnStart, (now-fnStart)*240, 0)
			if rng.Intn(10) == 0 {
				c.tr.CompleteRef(telemetry.GlobalTrack, c.tr.Intern("kernel", fn, "clock_mhz", "energy_j"), fnStart, 1, 1410, 1)
			}
		}
	}
	return c
}

// TestJoinMatchesParentBuild holds both feeds of the join — the slice, in
// recording order and shuffled, and the tracer in place — to the parent's
// Build, every field of every row bit for bit.
func TestJoinMatchesParentBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	degraded, fellBack := 0, 0
	for n := 0; n < 300; n++ {
		c := drawJoinCase(rng, n%2 == 1)
		opts := Options{RateHz: []float64{0, 10, 100}[n%3]}
		spans := c.tr.Spans()
		want := parentBuild(spans, c.series, opts)
		if got := Build(spans, c.series, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: Build differs from the parent's\n got %+v\nwant %+v", n, got, want)
		}
		if got := BuildFromTracer(c.tr, c.series, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: BuildFromTracer differs from the parent's\n got %+v\nwant %+v", n, got, want)
		}
		rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
		want = parentBuild(spans, c.series, opts)
		if got := Build(spans, c.series, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d, shuffled: Build differs from the parent's\n got %+v\nwant %+v", n, got, want)
		}
		if want.Degraded {
			degraded++
		}
		if len(want.Kernels) > 0 && n%2 == 1 {
			fellBack++
		}
	}
	if degraded < 30 || fellBack < 30 {
		t.Errorf("%d degraded and %d disordered cases with rows; the draw no longer covers what it names", degraded, fellBack)
	}
}
