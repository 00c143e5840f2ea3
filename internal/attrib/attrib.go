// Package attrib joins the async sampler's power series against the
// telemetry tracer's kernel and function spans to produce per-kernel and
// per-function energy and EDP attribution, per rank and per device — the
// application-level accounting of the companion measurement paper
// (Simsek et al., arXiv:2312.05102).
//
// Because the repository's devices are simulated, every span also carries
// the model's exactly-integrated energy. That turns attribution into a
// controlled experiment: the sampled estimate (integrating a fixed-rate
// cumulative-energy series across span boundaries) is compared row by row
// against ground truth, quantifying the discretization error a real
// fixed-rate sampler incurs.
//
// # Tolerance contract
//
// A sampler at rate f cannot resolve work much shorter than its period
// 1/f: a 1 ms kernel observed at 100 Hz lands entirely between two ticks,
// and its energy is smeared across the surrounding 10 ms interval. The
// package therefore gates its accuracy check in two documented steps:
//
//   - per-row: every *resolvable* row — mean call duration of at least
//     MinResolvablePeriods sampling periods (default 5) — must attribute
//     within TolerancePct (default 2%) of ground truth;
//   - aggregate: the energy-weighted mean absolute error across all rows,
//     resolvable or not, must also stay within TolerancePct. Short kernels
//     mis-attribute individually but their errors are bounded by the
//     energy in one period, so the weighted aggregate stays small.
//
// Pass reflects both gates. Unresolvable rows keep their raw error in the
// tables (marked Resolvable=false) so the rate-versus-resolution trade-off
// stays visible instead of being filtered away.
//
// # Degraded intervals
//
// When the sampler ran through sensor faults, ticks covering the outages
// carry sampler.Sample.Degraded — their energy is estimated, not
// observed. Attribution rows whose spans overlap such ticks are flagged
// (Row.Degraded, with the overlapping share in Row.DegradedPct) and
// excluded from both tolerance gates, the same treatment unresolvable
// rows get: an estimate must not fail — or pass — an accuracy contract
// about observed data. The flags propagate so reports can show exactly
// which table entries rest on estimated energy.
package attrib

import (
	"fmt"
	"math"
	"sort"

	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

// Defaults for the tolerance contract.
const (
	DefaultTolerancePct         = 2.0
	DefaultMinResolvablePeriods = 5.0
)

// Options configures an attribution build.
type Options struct {
	// RateHz is the per-rank sampling rate the series were collected at;
	// it sets the resolvability threshold. 0 disables the resolvable
	// classification (every row is treated as resolvable).
	RateHz float64 `json:"rate_hz"`
	// TolerancePct is the relative-error gate (DefaultTolerancePct if 0).
	TolerancePct float64 `json:"tolerance_pct"`
	// MinResolvablePeriods is the resolvability threshold in sampling
	// periods (DefaultMinResolvablePeriods if 0).
	MinResolvablePeriods float64 `json:"min_resolvable_periods"`
}

func (o Options) defaulted() Options {
	if o.TolerancePct <= 0 {
		o.TolerancePct = DefaultTolerancePct
	}
	if o.MinResolvablePeriods <= 0 {
		o.MinResolvablePeriods = DefaultMinResolvablePeriods
	}
	return o
}

// Row is one attribution table entry: a kernel or function on one rank.
type Row struct {
	Rank  int    `json:"rank"`
	Name  string `json:"name"`
	Calls int    `json:"calls"`
	// TimeS is the summed span duration.
	TimeS float64 `json:"time_s"`
	// MeanCallS is TimeS/Calls — what resolvability is judged on.
	MeanCallS float64 `json:"mean_call_s"`
	// ModelJ is the simulator's exactly-integrated energy (ground truth).
	ModelJ float64 `json:"model_j"`
	// SampledJ is the energy attributed from the sampled series.
	SampledJ float64 `json:"sampled_j"`
	// ErrPct is the relative attribution error vs ground truth.
	ErrPct float64 `json:"err_pct"`
	// EDPJs is the row's energy-delay product (sampled energy × time).
	EDPJs float64 `json:"edp_js"`
	// Resolvable marks rows whose mean call outlasts the resolvability
	// threshold; only these are individually gated.
	Resolvable bool `json:"resolvable"`
	// ClockMHz is the span-time-weighted achieved SM clock (kernel rows
	// only; from the tracer's clock_mhz arg, i.e. the clock the device
	// actually ran, not the one the strategy requested). 0 when unknown.
	ClockMHz float64 `json:"clock_mhz,omitempty"`
	// Degraded marks rows whose spans overlap sampler ticks flagged as
	// estimated; such rows are excluded from the tolerance gates.
	Degraded bool `json:"degraded,omitempty"`
	// DegradedPct is the share of the row's span time covered by degraded
	// sampler intervals.
	DegradedPct float64 `json:"degraded_pct,omitempty"`

	// accumulation scratch (not serialized)
	clockWeight float64
	degradedS   float64
}

// RankSummary aggregates one rank's attribution.
type RankSummary struct {
	Rank int `json:"rank"`
	// ModelJ / SampledJ total the rank's kernel rows.
	ModelJ   float64 `json:"model_j"`
	SampledJ float64 `json:"sampled_j"`
	// ErrPct is the rank's total attribution error.
	ErrPct float64 `json:"err_pct"`
	// Samples is the number of retained samples for the rank.
	Samples int `json:"samples"`
}

// Attribution is the full result of a build.
type Attribution struct {
	Opts Options `json:"options"`
	// Kernels and Functions are sorted by rank, then descending energy.
	Kernels   []Row         `json:"kernels"`
	Functions []Row         `json:"functions"`
	Ranks     []RankSummary `json:"ranks"`
	// AggErrPct is the energy-weighted mean absolute kernel error.
	AggErrPct float64 `json:"agg_err_pct"`
	// MaxResolvableErrPct is the worst per-row error among resolvable
	// kernel rows.
	MaxResolvableErrPct float64 `json:"max_resolvable_err_pct"`
	// Pass reports the two-gate tolerance contract (package comment),
	// evaluated over clean rows only — degraded rows are classified, not
	// gated.
	Pass bool `json:"pass"`
	// Degraded reports whether any kernel row overlapped estimated
	// sampler intervals; DegradedRows/DegradedEnergyJ size the exclusion.
	Degraded        bool    `json:"degraded,omitempty"`
	DegradedRows    int     `json:"degraded_rows,omitempty"`
	DegradedEnergyJ float64 `json:"degraded_energy_j,omitempty"`
	// DroppedSamples is the number of rank samples the sampler's bounded
	// rings had rotated out when the series were joined (MarkDropped); a
	// non-zero count fails the attribution whatever the gates read.
	DroppedSamples uint64 `json:"dropped_samples,omitempty"`
}

// MarkDropped records that the rank channels' rings overflowed before the
// join and dropped n samples in all. The retained series then starts after
// the run does: spans older than its first tick integrate to nothing, and
// the error figures measure that gap (−31 % aggregate at 1000 steps of
// 100 Hz against a 65 536-sample ring), not the sampler. The attribution
// fails with the count as its stated reason. n == 0 changes nothing.
func (a *Attribution) MarkDropped(n uint64) {
	if n == 0 {
		return
	}
	a.DroppedSamples = n
	a.Pass = false
}

// energySeries evaluates cumulative sampled energy at arbitrary times by
// linear interpolation over one rank's tick samples.
type energySeries struct {
	times    []float64
	energies []float64
	// Degraded-interval index: degSeg[i] flags the interval ending at
	// times[i] (a degraded tick covers the window since the previous
	// tick); degPrefix[i] is the cumulative degraded time up to times[i],
	// making span overlap an O(log n) query.
	degSeg    []bool
	degPrefix []float64
	degAny    bool
	// One cursor per row table: a rank's kernel spans arrive in time order,
	// and so do its function spans, but a function is recorded after the
	// kernels it contains.
	cursors [2]cursor
}

// cursor remembers where the previous span of one table fell in the
// series, so that the next one, starting and ending no earlier, is located
// by stepping forward from there instead of by two binary searches.
type cursor struct {
	startS, endS float64 // the previous span
	lo, hi       int     // its window
}

func newEnergySeries(samples []sampler.Sample) *energySeries {
	es := &energySeries{
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
	for i := range es.cursors {
		es.cursors[i] = cursor{startS: math.Inf(-1), endS: math.Inf(-1), hi: -1}
	}
	return es
}

// window locates a span in the series: lo is the first tick at or after
// startS (len(times) when there is none), hi the last tick at or before
// endS (-1 when there is none). Every estimator below works from these two.
// A span that starts and ends no earlier than the table's previous one is
// found by stepping the cursor forward, which over a time-ordered table
// costs one pass through the series in all; any other falls back to
// binary search.
func (es *energySeries) window(table int, startS, endS float64) (lo, hi int) {
	c := &es.cursors[table]
	n := len(es.times)
	if startS >= c.startS {
		for lo = c.lo; lo < n && es.times[lo] < startS; lo++ {
		}
	} else {
		lo = sort.SearchFloat64s(es.times, startS)
	}
	if endS >= c.endS {
		for hi = c.hi; hi+1 < n && es.times[hi+1] <= endS; hi++ {
		}
	} else {
		hi = sort.Search(n, func(i int) bool { return es.times[i] > endS }) - 1
	}
	*c = cursor{startS: startS, endS: endS, lo: lo, hi: hi}
	return lo, hi
}

// degAt returns the cumulative degraded time up to t.
func (es *energySeries) degAt(t float64) float64 {
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

// degradedOverlap returns the degraded time inside the span [startS, endS]
// whose window is lo, hi. Spans too short to contain an interior sample
// interval are estimated from their *neighbor* intervals (atStart extends
// the preceding one, atEnd the following one), so for those the query
// widens to the borrowed intervals: such a span rests on estimated data
// even when its own time window is clean. The result is capped at the span
// duration so DegradedPct stays a fraction of the span.
func (es *energySeries) degradedOverlap(startS, endS float64, lo, hi int) float64 {
	if !es.degAny || endS <= startS {
		return 0
	}
	n := len(es.times)
	if lo < n && hi >= 0 && hi > lo {
		// Interior-interval spans (integrate's exact path) draw only on
		// samples inside their window; strict overlap is the whole story.
		return es.degAt(endS) - es.degAt(startS)
	}
	padLo, padHi := startS, endS
	if i := es.intervalOfStart(startS, lo); i > 0 {
		padLo = es.times[i-1]
	}
	if i := es.intervalOfEnd(endS, hi); i >= 0 && i+2 < n {
		padHi = es.times[i+2]
	}
	return math.Min(es.degAt(padHi)-es.degAt(padLo), endS-startS)
}

// intervalOfStart returns the interval index i with times[i] <= t <
// times[i+1], or -1 when t is outside the series (including the exact last
// point), given lo, the first tick at or after t.
func (es *energySeries) intervalOfStart(t float64, lo int) int {
	n := len(es.times)
	if n < 2 || t < es.times[0] || t >= es.times[n-1] {
		return -1
	}
	if es.times[lo] == t {
		return lo
	}
	return lo - 1
}

// intervalOfEnd is intervalOfStart given hi, the last tick at or before t —
// which, inside the series, is the interval's own index. (Where a rank
// merged from several channels repeats the tick time t, a search from the
// left would name the first of them; but only spans with no tick between
// their ends come here, and a span ending on a repeated tick has one.)
func (es *energySeries) intervalOfEnd(t float64, hi int) int {
	n := len(es.times)
	if n < 2 || t < es.times[0] || t >= es.times[n-1] {
		return -1
	}
	return hi
}

// powerOf returns the mean power across interval i.
func (es *energySeries) powerOf(i int) float64 {
	dt := es.times[i+1] - es.times[i]
	if dt <= 0 {
		return 0
	}
	return (es.energies[i+1] - es.energies[i]) / dt
}

// clamp bounds an energy estimate inside interval i — the sampled series
// is monotone (the sampler clamps negative deltas), so the true value
// cannot leave the interval's energy range.
func (es *energySeries) clamp(e float64, i int) float64 {
	return math.Min(math.Max(e, es.energies[i]), es.energies[i+1])
}

// atStart estimates cumulative energy at a span's start time (lo being
// the first tick at or after it). A plain lerp across the containing
// sample interval systematically smears span energy into the preceding
// idle (the cumulative-energy curve is convex at a low→high power
// transition), biasing every attribution low. The span boundary time is
// known exactly from the tracer, so the estimator assumes the power
// transition happens there and extends the *preceding* interval's observed
// power up to it — Score-P-style timestamp-aligned attribution.
// Out-of-window times clamp to the series' ends, surfacing sampler
// coverage gaps as attribution error instead of hiding them by
// extrapolation.
func (es *energySeries) atStart(t float64, lo int) float64 {
	n := len(es.times)
	if n == 0 {
		return 0
	}
	i := es.intervalOfStart(t, lo)
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

// atEnd estimates cumulative energy at a span's end time (hi being the
// last tick at or before it), mirroring atStart: the *following*
// interval's power is extended backwards to the boundary.
func (es *energySeries) atEnd(t float64, hi int) float64 {
	n := len(es.times)
	if n == 0 {
		return 0
	}
	i := es.intervalOfEnd(t, hi)
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

// integrate returns the sampled energy across the span [startS, endS]
// whose window is lo, hi. When the span contains at least one full sample
// interval, its interior energy is taken verbatim and the partial edge
// intervals are filled by extending the nearest *interior* interval's
// power outward — within the span the power regime is the span's own, so
// this is exact for constant-power kernels however short the surrounding
// idle gaps are. Spans too short to contain an interior interval fall back
// to the neighbor-interval boundary estimate of atStart/atEnd.
func (es *energySeries) integrate(startS, endS float64, lo, hi int) float64 {
	if endS <= startS {
		return 0
	}
	n := len(es.times)
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
	return math.Max(0, es.atEnd(endS, hi)-es.atStart(startS, lo))
}

// rowKey groups spans into table rows.
type rowKey struct {
	rank int
	name string
}

// table is one of the attribution's two row sets under construction.
type table struct {
	category string // the span category whose spans are its rows
	truthKey string // the span argument holding the model's energy
	rows     map[rowKey]*Row
	// byRef caches the rows of spans with an interned identity, by identity
	// and rank, so that finding a span's row is two slice indexings instead
	// of hashing its name. rows stays the table of record: a row is entered
	// here the first time its identity is seen on its rank.
	byRef [][]*Row
}

// row returns the row of a span named name on rank, recorded under the
// interned identity ref (telemetry.NoRef when under none).
func (t *table) row(ref telemetry.SpanRef, rank int, name string) *Row {
	if ref != telemetry.NoRef {
		for int(ref) >= len(t.byRef) {
			t.byRef = append(t.byRef, nil)
		}
		for rank >= len(t.byRef[ref]) {
			t.byRef[ref] = append(t.byRef[ref], nil)
		}
		if row := t.byRef[ref][rank]; row != nil {
			return row
		}
	}
	key := rowKey{rank: rank, name: name}
	row, ok := t.rows[key]
	if !ok {
		row = &Row{Rank: rank, Name: name}
		t.rows[key] = row
	}
	if ref != telemetry.NoRef {
		t.byRef[ref][rank] = row
	}
	return row
}

// join is an attribution under construction: spans are folded into its
// rows one at a time by add, in whatever order their source holds them,
// and finish turns the rows into the result. Build feeds it a slice of
// spans, BuildFromTracer a tracer's records where they lie.
type join struct {
	opts   Options
	series map[int]*energySeries
	// The series of the last span's rank: sources hand over one track's
	// spans after another's, so this saves the map probe.
	rank    int
	current *energySeries
	tables  [2]table
}

func newJoin(series map[int][]sampler.Sample, opts Options) *join {
	j := &join{opts: opts.defaulted(), rank: -1, series: make(map[int]*energySeries, len(series))}
	for rank, ss := range series {
		j.series[rank] = newEnergySeries(ss)
	}
	j.tables[0] = table{category: "kernel", truthKey: "energy_j", rows: map[rowKey]*Row{}}
	j.tables[1] = table{category: "function", truthKey: "gpu_j", rows: map[rowKey]*Row{}}
	return j
}

// add folds one span into its row. Only complete spans of the two tables'
// categories on rank tracks the sampler covered participate; everything
// else is ignored.
func (j *join) add(ref telemetry.SpanRef, sp *telemetry.SpanEvent) {
	if sp.Track < 0 || sp.Instant {
		return
	}
	ti := 0
	if sp.Category != j.tables[0].category {
		if ti = 1; sp.Category != j.tables[1].category {
			return
		}
	}
	if sp.Track != j.rank {
		j.rank, j.current = sp.Track, j.series[sp.Track]
	}
	s := j.current
	if s == nil {
		return
	}
	t := &j.tables[ti]
	row := t.row(ref, sp.Track, sp.Name)
	row.Calls++
	row.TimeS += sp.DurS
	truth, _ := sp.Arg(t.truthKey)
	row.ModelJ += truth
	lo, hi := s.window(ti, sp.StartS, sp.EndS())
	row.SampledJ += s.integrate(sp.StartS, sp.EndS(), lo, hi)
	row.degradedS += s.degradedOverlap(sp.StartS, sp.EndS(), lo, hi)
	if clock, ok := sp.Arg("clock_mhz"); ok {
		row.clockWeight += clock * sp.DurS
	}
}

// Build joins spans against sampled series. Only spans in the categories
// "kernel" (ground truth in the "energy_j" arg) and "function" (ground
// truth in the "gpu_j" arg) on rank tracks participate; everything else is
// ignored.
func Build(spans []telemetry.SpanEvent, series map[int][]sampler.Sample, opts Options) *Attribution {
	j := newJoin(series, opts)
	for i := range spans {
		j.add(telemetry.NoRef, &spans[i])
	}
	return j.finish()
}

// BuildFromTracer is Build(t.Spans(), series, opts) without the slice:
// the tracer's records are joined where they lie, in the order Spans
// returns them, so the result is the same to the last bit.
func BuildFromTracer(t *telemetry.Tracer, series map[int][]sampler.Sample, opts Options) *Attribution {
	j := newJoin(series, opts)
	t.VisitSpans(j.add)
	return j.finish()
}

// finish closes the rows and applies the tolerance contract.
func (j *join) finish() *Attribution {
	opts := j.opts
	a := &Attribution{Opts: opts}
	minDur := 0.0
	if opts.RateHz > 0 {
		minDur = opts.MinResolvablePeriods / opts.RateHz
	}
	closeRows := func(table map[rowKey]*Row) []Row {
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
	a.Kernels = closeRows(j.tables[0].rows)
	a.Functions = closeRows(j.tables[1].rows)

	// Rank summaries over kernel rows.
	perRank := map[int]*RankSummary{}
	for _, r := range a.Kernels {
		rs, ok := perRank[r.Rank]
		if !ok {
			rs = &RankSummary{Rank: r.Rank, Samples: len(j.series[r.Rank].times)}
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

// relErrPct returns 100*(got-want)/want, 0 when want is 0 and got is 0,
// and ±100 when want is 0 but got is not.
func relErrPct(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Copysign(100, got)
	}
	return 100 * (got - want) / want
}

// TopKernels returns the n highest-energy kernel rows summed across ranks
// (n <= 0 returns all), for compact report rendering.
func (a *Attribution) TopKernels(n int) []Row {
	byName := map[string]*Row{}
	for _, r := range a.Kernels {
		agg, ok := byName[r.Name]
		if !ok {
			agg = &Row{Rank: -1, Name: r.Name, Resolvable: true}
			byName[r.Name] = agg
		}
		agg.Calls += r.Calls
		agg.TimeS += r.TimeS
		agg.ModelJ += r.ModelJ
		agg.SampledJ += r.SampledJ
		agg.Resolvable = agg.Resolvable && r.Resolvable
		agg.Degraded = agg.Degraded || r.Degraded
		// The scratch accumulators don't survive a JSON round trip
		// (energyreport re-aggregates rows read from disk), so rebuild
		// them from the exported per-row values when they're empty.
		if r.clockWeight == 0 && r.ClockMHz > 0 {
			r.clockWeight = r.ClockMHz * r.TimeS
		}
		if r.degradedS == 0 && r.DegradedPct > 0 {
			r.degradedS = r.DegradedPct / 100 * r.TimeS
		}
		agg.clockWeight += r.clockWeight
		agg.degradedS += r.degradedS
	}
	out := make([]Row, 0, len(byName))
	for _, r := range byName {
		if r.Calls > 0 {
			r.MeanCallS = r.TimeS / float64(r.Calls)
		}
		r.ErrPct = relErrPct(r.SampledJ, r.ModelJ)
		r.EDPJs = r.SampledJ * r.TimeS
		if r.TimeS > 0 {
			if r.clockWeight > 0 {
				r.ClockMHz = r.clockWeight / r.TimeS
			}
			r.DegradedPct = 100 * r.degradedS / r.TimeS
		}
		r.Degraded = r.Degraded || r.degradedS > 0
		out = append(out, *r)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].ModelJ != out[b].ModelJ {
			return out[a].ModelJ > out[b].ModelJ
		}
		return out[a].Name < out[b].Name
	})
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return out
}

// Source is one energy reading in a cross-source validation.
type Source struct {
	// Name identifies the measurement path ("sampled-sensors",
	// "pm_counters", "slurm-consumed", ...).
	Name    string  `json:"name"`
	EnergyJ float64 `json:"energy_j"`
	// RelErrPct is the deviation from the validation reference.
	RelErrPct float64 `json:"rel_err_pct"`
	// Informational sources render in the report but do not gate Pass
	// (e.g. the loop-only PMT reading, which legitimately excludes job
	// setup energy — the Fig. 3 gap).
	Informational bool `json:"informational,omitempty"`
	// Degraded marks sources whose reading rests on estimated data (a
	// sensor path that failed over during the run). Degraded sources are
	// reported but excluded from the gate, like Informational ones, and
	// their disagreement is classified as unresolvable rather than a
	// failure.
	Degraded bool `json:"degraded,omitempty"`
	// Pass is |RelErrPct| <= threshold (true for informational and
	// degraded rows).
	Pass bool `json:"pass"`
}

// Validation reproduces the paper's cross-source energy check (§IV-A,
// Fig. 3): independent measurement paths — sampled node sensors, direct
// pm_counters reads, Slurm's ConsumedEnergy accounting — are compared
// against the model-integrated reference with a relative-error threshold.
type Validation struct {
	// ReferenceJ is the model's exactly-integrated job energy
	// (setup + stepping loop), the scope all gating sources share.
	ReferenceJ float64 `json:"reference_j"`
	// ThresholdPct is the relative-error gate per source.
	ThresholdPct float64  `json:"threshold_pct"`
	Sources      []Source `json:"sources"`
	// Pass is true when every non-informational source is within the
	// threshold.
	Pass bool `json:"pass"`
}

// NewValidation starts a validation against a reference energy.
// thresholdPct <= 0 selects DefaultTolerancePct.
func NewValidation(referenceJ, thresholdPct float64) *Validation {
	if thresholdPct <= 0 {
		thresholdPct = DefaultTolerancePct
	}
	return &Validation{ReferenceJ: referenceJ, ThresholdPct: thresholdPct, Pass: true}
}

// Add records one source reading and updates the verdict.
func (v *Validation) Add(name string, energyJ float64, informational bool) *Validation {
	s := Source{Name: name, EnergyJ: energyJ, Informational: informational}
	s.RelErrPct = relErrPct(energyJ, v.ReferenceJ)
	s.Pass = informational || math.Abs(s.RelErrPct) <= v.ThresholdPct
	if !s.Pass {
		v.Pass = false
	}
	v.Sources = append(v.Sources, s)
	return v
}

// MarkDegraded flags the named source as degraded: it stops gating Pass
// and its disagreement with the reference is classified as unresolvable
// (the reading rests on failed-over or estimated sensor data, so neither
// agreement nor disagreement is evidence). The overall verdict is
// recomputed from the remaining gating sources.
func (v *Validation) MarkDegraded(name string) *Validation {
	for i := range v.Sources {
		if v.Sources[i].Name == name {
			v.Sources[i].Degraded = true
			v.Sources[i].Pass = true
		}
	}
	v.Pass = true
	for _, s := range v.Sources {
		if !s.Informational && !s.Degraded &&
			math.Abs(s.RelErrPct) > v.ThresholdPct {
			v.Pass = false
		}
	}
	return v
}

// Get returns the named source reading.
func (v *Validation) Get(name string) (Source, bool) {
	for _, s := range v.Sources {
		if s.Name == name {
			return s, true
		}
	}
	return Source{}, false
}

// Summary renders a one-line verdict ("PASS: 3/3 sources within 2%"),
// noting degraded sources excluded from the gate.
func (v *Validation) Summary() string {
	gated, ok, degraded := 0, 0, 0
	for _, s := range v.Sources {
		if s.Degraded {
			degraded++
			continue
		}
		if s.Informational {
			continue
		}
		gated++
		if s.Pass {
			ok++
		}
	}
	verdict := "PASS"
	if !v.Pass {
		verdict = "FAIL"
	}
	out := fmt.Sprintf("%s: %d/%d sources within %.3g%% of model reference",
		verdict, ok, gated, v.ThresholdPct)
	if degraded > 0 {
		out += fmt.Sprintf(" (%d degraded, unresolvable)", degraded)
	}
	return out
}
