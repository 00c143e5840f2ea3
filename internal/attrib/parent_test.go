package attrib

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sphenergy/internal/blocks"
	"sphenergy/internal/pmt"
	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

// What follows, down to parentBuild, is the join as it stood at commit
// 7955eee — two binary searches per span over materialised tick times, rows
// in a string-keyed map, fed from the Spans() slice — kept verbatim
// (identifiers prefixed, the series handed over as materialised ticks) as
// the reference the index-arithmetic join must reproduce to the last bit.

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

func newParentSeries(samples []tick) *parentSeries {
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

// degradedOverlap returns the degraded time inside [startS, endS], span
// time before the first tick included (a rule added after 7955eee, kept in
// step with the join's). Spans too short to contain an interior sample interval are estimated
// from their *neighbor* intervals (atStart extends the preceding one,
// atEnd the following one), so for those the query widens to the
// borrowed intervals: such a span rests on estimated data even when its
// own time window is clean. The result is capped at the span duration
// so DegradedPct stays a fraction of the span.
func (es *parentSeries) degradedOverlap(startS, endS float64) float64 {
	n := len(es.times)
	if endS <= startS || n == 0 {
		return 0
	}
	unseen := math.Max(math.Min(endS, es.times[0])-startS, 0)
	if !es.degAny {
		return unseen
	}
	lo := sort.SearchFloat64s(es.times, startS)
	hi := sort.Search(n, func(i int) bool { return es.times[i] > endS }) - 1
	if lo < n && hi >= 0 && hi > lo {
		// Interior-interval spans (integrate's exact path) draw only on
		// samples inside their window; strict overlap is the whole story.
		return unseen + es.degAt(endS) - es.degAt(startS)
	}
	padLo, padHi := startS, endS
	if i := es.locate(startS); i > 0 {
		padLo = es.times[i-1]
	}
	if i := es.locate(endS); i >= 0 && i+2 < n {
		padHi = es.times[i+2]
	}
	return math.Min(unseen+es.degAt(padHi)-es.degAt(padLo), endS-startS)
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
func parentBuild(spans []telemetry.SpanEvent, series map[int][]tick, opts Options) *Attribution {
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
		row.SampledJ += s.integrate(sp.StartS, sp.StartS+sp.DurS)
		row.degradedS += s.degradedOverlap(sp.StartS, sp.StartS+sp.DurS)
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
	series map[int]sampler.Series
}

// drawJoinCase records a few ranks' worth of kernels inside functions —
// interned and by name, some instants and foreign categories among them —
// against series that may be degraded in stretches, start at a grid index
// from 0 up to 2^40, sit in a ring that has wrapped, or be shorter than the
// run or empty; a third of the spans start and end exactly on ticks. With
// disorder, spans are also recorded out of time order, overlapping, of zero
// or negative length and outside the series.
func drawJoinCase(rng *rand.Rand, disorder bool) joinCase {
	const ranks = 3
	c := joinCase{tr: telemetry.NewTracer(ranks), series: map[int]sampler.Series{}}
	names := []string{"density", "iad", "momentum", "x<y"}
	for r := 0; r < ranks; r++ {
		period := []float64{0.01, 0.1, 0.25}[rng.Intn(3)]
		ticks := rng.Intn(400)
		switch rng.Intn(8) {
		case 0:
			ticks = rng.Intn(3)
		case 1:
			ticks = blocks.Len + rng.Intn(2*blocks.Len) // a ring across blocks
		}
		first := []int64{0, rng.Int63n(5000), 1<<40 - rng.Int63n(5000)}[rng.Intn(3)]
		ss := sampler.Series{First: first, PeriodS: period}
		dropped := 0
		if ticks > 0 && rng.Intn(3) == 0 {
			ss.Energies, dropped = blocks.Bounded[float64](ticks), rng.Intn(3*ticks)
		}
		e := 0.0
		for i := -dropped; i < ticks; i++ {
			e += period * (50 + 300*rng.Float64())
			slot, _ := ss.Energies.Push()
			*slot = e
		}
		for from := 0; from < ticks && rng.Intn(3) != 0; {
			from += rng.Intn(ticks - from)
			to := from + 1 + rng.Intn(ticks-from)
			ss.Degraded = append(ss.Degraded, sampler.TickRun{From: first + int64(from), To: first + int64(to)})
			from = to + 1
		}
		if rng.Intn(6) != 0 {
			c.series[r] = ss
		}
		base := float64(first) * period
		end := float64(first+int64(ticks)) * period
		now := base + rng.Float64()*period
		for now < end+0.1*(end-base)+period {
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
						start = base + rng.Float64()*(end-base)*1.4 - 0.2*(end-base)
					case 1:
						dur = 0
					case 2:
						dur = -dur
					}
				}
				name := names[rng.Intn(len(names))]
				switch rng.Intn(6) {
				case 0:
					c.tr.CompleteRef(r, c.tr.Intern("kernel", name, "energy_j", "clock_mhz"), start, dur, dur*200, 1005)
				case 1:
					c.tr.InstantRef(r, c.tr.Intern("kernel", name), start, 0, 0)
				case 2:
					c.tr.RecordSpan(r, "mpi", name, start, dur)
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

// scriptSensor replays a drawn list of reads, then its last read again.
type scriptSensor struct {
	reads []pmt.State
	next  int
}

func (s *scriptSensor) Name() string { return "script" }

func (s *scriptSensor) Read() pmt.State {
	st := s.reads[min(s.next, len(s.reads)-1)]
	s.next++
	return st
}

// twinSamplers returns two samplers at hz, each with one rank channel per
// script, reading the script from its start.
func twinSamplers(hz float64, scripts map[int][]pmt.State) (a, b *sampler.Sampler) {
	a, b = sampler.New(sampler.Config{GPUHz: hz}), sampler.New(sampler.Config{GPUHz: hz})
	for rank := range len(scripts) + 3 { // in rank order
		if reads, ok := scripts[rank]; ok {
			a.AddRank(rank, &scriptSensor{reads: reads})
			b.AddRank(rank, &scriptSensor{reads: reads})
		}
	}
	return a, b
}

// pollRank polls rank's channel of s once.
func pollRank(s *sampler.Sampler, rank int) {
	for _, ch := range s.Channels() {
		if ch.Stats().Rank == rank {
			ch.Poll()
		}
	}
}

// onlineCase is a randomly drawn run for the online join: each sampled
// rank's sensor reads, and the polls and records of every rank in the
// order they happen.
type onlineCase struct {
	hz     float64
	reads  map[int][]pmt.State
	events []onlineEvent
}

// onlineEvent is one poll of a rank's channel, or one record on its track.
type onlineEvent struct {
	atS  float64 // when it happens
	rank int
	poll bool
	// A record: its kind (see record), name, start, duration and values.
	kind         int
	name         string
	startS, durS float64
	v0, v1       float64
}

// record records the event on tr.
func (e *onlineEvent) record(tr *telemetry.Tracer) {
	switch e.kind {
	case 0:
		tr.CompleteRef(e.rank, tr.Intern("kernel", e.name, "energy_j", "clock_mhz"), e.startS, e.durS, e.v0, e.v1)
	case 1:
		tr.InstantRef(e.rank, tr.Intern("kernel", e.name), e.startS, 0, 0)
	case 2:
		tr.RecordSpan(e.rank, "mpi", e.name, e.startS, e.durS)
	case 3:
		tr.CompleteRef(e.rank, tr.Intern("kernel", e.name, "clock_mhz", "energy_j"), e.startS, e.durS, e.v0, e.v1)
	case 4:
		tr.CompleteRef(e.rank, tr.Intern("function", e.name, "gpu_j", "comm_s"), e.startS, e.durS, e.v0, e.v1)
	case 5:
		tr.CompleteRef(telemetry.GlobalTrack, tr.Intern("kernel", e.name, "clock_mhz", "energy_j"), e.startS, e.durS, e.v0, e.v1)
	}
}

// drawOnlineCase draws sensors read at irregular times from a baseline at
// a grid index from 0 up to 2^40, on or off the grid — failing reads among
// them, at the start too (the channel takes its baseline late), frozen
// stretches that latch the stuck detector, repeated times and counter
// resets — and records on every rank as drawJoinCase does, each happening
// at its end. With disorder, spans are also recorded out of time order,
// overlapping, of zero or negative length and outside the series.
func drawOnlineCase(rng *rand.Rand, disorder bool) onlineCase {
	const ranks = 3
	period := []float64{0.01, 0.1, 0.25}[rng.Intn(3)]
	c := onlineCase{hz: 1 / period, reads: map[int][]pmt.State{}}
	names := []string{"density", "iad", "momentum", "x<y"}
	for r := 0; r < ranks; r++ {
		first := []int64{0, rng.Int63n(5000), 1<<40 - rng.Int63n(5000)}[rng.Intn(3)]
		base := float64(first) * period
		if rng.Intn(2) == 0 {
			base += rng.Float64() * period
		}
		nreads := 2 + rng.Intn(150)
		if rng.Intn(8) == 0 {
			nreads = rng.Intn(3)
		}
		late := 0
		if rng.Intn(4) == 0 {
			late = 1 + rng.Intn(4)
		}
		t, e, frozen := base, 1000*rng.Float64(), 0
		var reads []pmt.State
		for i := 0; i < nreads; i++ {
			st := pmt.State{TimeS: t, EnergyJ: e}
			if i < late || rng.Intn(15) == 0 {
				st.EnergyJ = math.NaN()
			}
			reads = append(reads, st)
			c.events = append(c.events, onlineEvent{atS: t, rank: r, poll: true})
			if frozen == 0 && rng.Intn(25) == 0 {
				frozen = 3 + rng.Intn(4)
			}
			gap := period * (0.2 + 6*rng.Float64())
			switch {
			case frozen > 0:
				frozen--
				gap = period * (1 + rng.Float64())
			case rng.Intn(12) == 0:
				gap = 0
			case rng.Intn(40) == 0:
				e -= 50 * rng.Float64() // a counter reset
			default:
				e += gap * (50 + 300*rng.Float64())
			}
			t += gap
		}
		if nreads > 0 && rng.Intn(6) != 0 {
			c.reads[r] = reads
		}
		end := t
		now := base - rng.Float64()*3*period
		for now < end+0.1*(end-base)+period {
			fnStart := now
			fn := names[rng.Intn(len(names))]
			for k := rng.Intn(4); k >= 0; k-- {
				dur := period * math.Pow(10, 2*rng.Float64()-1.5)
				start := now
				if rng.Intn(3) == 0 {
					start = period * math.Ceil(start/period)
					dur = period * float64(rng.Intn(4))
				}
				if disorder {
					switch rng.Intn(6) {
					case 0:
						start = base + rng.Float64()*(end-base)*1.4 - 0.2*(end-base)
					case 1:
						dur = 0
					case 2:
						dur = -dur
					}
				}
				ev := onlineEvent{atS: math.Max(now, start+dur), rank: r, kind: rng.Intn(6) % 5,
					name: names[rng.Intn(len(names))], startS: start, durS: dur}
				switch ev.kind {
				case 0:
					ev.v0, ev.v1 = dur*200, 1005
				case 3, 4:
					ev.kind, ev.v0, ev.v1 = 3, 1410, dur*250
				}
				c.events = append(c.events, ev)
				now = math.Max(now, start+dur) + period*rng.Float64()*0.3
			}
			c.events = append(c.events, onlineEvent{atS: now, rank: r, kind: 4, name: fn,
				startS: fnStart, durS: now - fnStart, v0: (now - fnStart) * 240})
			if rng.Intn(10) == 0 {
				c.events = append(c.events, onlineEvent{atS: now, rank: r, kind: 5, name: fn, startS: fnStart, durS: 1, v0: 1410, v1: 1})
			}
		}
	}
	sort.SliceStable(c.events, func(i, j int) bool { return c.events[i].atS < c.events[j].atS })
	return c
}

// TestJoinMatchesParentBuild holds both feeds of the join to the parent's
// Build, every field of every row bit for bit: the slice, in recording
// order and shuffled, against series as drawJoinCase draws them, and the
// online join against channels polled as a drawOnlineCase happens, with
// the join advanced after every record, at random places, or only at the
// end, each time told the earliest start of the records still to come.
// The parent's Build sees every tick the channel emitted: those of a twin
// channel read the same way and never released.
func TestJoinMatchesParentBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	degraded, fellBack := 0, 0
	for n := 0; n < 300; n++ {
		c := drawJoinCase(rng, n%2 == 1)
		opts := Options{RateHz: []float64{0, 10, 100}[n%3]}
		spans := c.tr.Spans()
		held := map[int][]tick{}
		for r, s := range c.series {
			held[r] = materialise(s)
		}
		want := parentBuild(spans, held, opts)
		if got := Build(spans, c.series, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d: Build differs from the parent's\n got %+v\nwant %+v", n, got, want)
		}
		rng.Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
		want = parentBuild(spans, held, opts)
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

	var early, released, late, onlineDegraded int
	for n := 0; n < 300; n++ {
		c := drawOnlineCase(rng, n%2 == 1)
		opts := Options{RateHz: []float64{0, 10, 100}[n%3]}
		// horizon[i] is the earliest start of the records from event i on.
		horizon := make([]float64, len(c.events)+1)
		horizon[len(c.events)] = math.Inf(1)
		for i := len(c.events) - 1; i >= 0; i-- {
			horizon[i] = horizon[i+1]
			if ev := &c.events[i]; !ev.poll && ev.startS < horizon[i] {
				horizon[i] = ev.startS
			}
		}
		for mode, advance := range []func(i int, ev *onlineEvent) bool{
			func(_ int, ev *onlineEvent) bool { return !ev.poll },
			func(int, *onlineEvent) bool { return rng.Intn(7) == 0 },
			func(int, *onlineEvent) bool { return false },
		} {
			smp, twin := twinSamplers(c.hz, c.reads)
			tr := telemetry.NewTracer(3)
			o := NewOnline(tr, smp, opts)
			for i := range c.events {
				ev := &c.events[i]
				if ev.poll {
					pollRank(smp, ev.rank)
				} else {
					ev.record(tr)
				}
				if advance(i, ev) {
					o.Advance(horizon[i+1])
				}
			}
			for _, row := range o.j.tables[0].rows {
				if row.Calls > 0 {
					early++
					break
				}
			}
			for _, l := range o.ranks {
				if l.s.n > 0 && l.ch.Series().First > l.s.origin {
					released++
					break
				}
			}
			for _, ch := range twin.Channels() {
				for range len(c.reads[ch.Stats().Rank]) {
					ch.Poll()
				}
			}
			series := twin.RankSeries()
			held := map[int][]tick{}
			for r, s := range series {
				held[r] = materialise(s)
				if len(held[r]) > 0 && math.IsNaN(c.reads[r][0].EnergyJ) {
					late++
				}
			}
			spans := tr.Spans()
			want := parentBuild(spans, held, opts)
			if got := o.Finish(); !reflect.DeepEqual(got, want) {
				t.Fatalf("online case %d, mode %d: the online join differs from the parent's\n got %+v\nwant %+v", n, mode, got, want)
			}
			if got := Build(spans, series, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("online case %d, mode %d: Build differs from the parent's\n got %+v\nwant %+v", n, mode, got, want)
			}
			if want.Degraded {
				onlineDegraded++
			}
		}
	}
	if early < 400 || released < 400 || late < 200 || onlineDegraded < 400 {
		t.Errorf("of 900 online joins, %d folded rows before the end, %d released ticks, %d had a channel that took its baseline late, %d were degraded; the draw no longer covers what it names",
			early, released, late, onlineDegraded)
	}
}
