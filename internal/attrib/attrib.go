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
// # Joining while the run runs
//
// core.Run joins online (Online): at every step boundary each rank's new
// records are read from a cursor into its tracer track and folded in
// recording order, each as soon as the rank's channel holds two ticks past
// the last one at or before the record's end. From then on no estimator
// below reads the series differently from the one the run ends with, so
// the sums are a post-run join's to the bit. The channel then lets go of
// the ticks before the oldest record left waiting, and a ring holds about a
// step, not the run. Build joins a span slice against whole series.
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
// are listed in sampler.Series.Degraded — their energy is estimated, not
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
	// Samples is the number of ticks the rank's spans were joined against:
	// its channel's, from the first tick the join saw through the last.
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
	// DroppedSamples is the number of rank ticks the sampler's bounded
	// rings rotated out while a span still waiting to be joined read them
	// (MarkDropped); a non-zero count fails the attribution whatever the
	// gates read.
	DroppedSamples uint64 `json:"dropped_samples,omitempty"`
}

// MarkDropped records that the rank channels' rings overflowed and
// dropped n ticks in all that waiting spans read. The join then reads the
// series from the oldest tick kept: spans older than it integrate to
// nothing and are flagged degraded. The attribution fails with the count as
// its stated reason. n == 0 changes nothing.
func (a *Attribution) MarkDropped(n uint64) {
	if n == 0 {
		return
	}
	a.DroppedSamples = n
	a.Pass = false
}

// energySeries evaluates cumulative sampled energy at arbitrary times by
// linear interpolation over one rank's tick series, read where the sampler
// keeps it. A tick's time is its grid index times the period, so a time is
// located by index arithmetic. Ticks are numbered from the series' origin,
// the first tick the join saw. A channel joined while the run runs lets go
// of the ticks no waiting span reads, so the held ones may start later; a
// span that reads tick 0 starts before it, and keeps it held while it waits.
type energySeries struct {
	s      sampler.Series // the held ticks
	origin int64          // the grid index of tick 0
	n      int            // the ticks from the origin through the newest held
	held0  int            // the oldest held tick
	kept   int64          // the grid index the join released the ticks below
	// prefix[i-prefixFrom] is the cumulative degraded time up to tick i,
	// the intervals ending at flagged ticks summed in time order, making
	// span overlap an O(log n) query; the ticks before prefixFrom have none.
	// It is nil while no tick is flagged. It covers the first prefixed
	// ticks, and grows as they arrive.
	prefix     []float64
	prefixFrom int
	prefixed   int
}

// newEnergySeries wraps one rank's series; it copies no tick.
func newEnergySeries(s sampler.Series) *energySeries {
	es := &energySeries{}
	es.update(s)
	return es
}

// update points the series at the ticks its channel holds now, s, and
// extends the degraded prefix over the new ones. The first ticks seen set
// the origin. So do the held ones when a full ring has rotated out ticks
// the join still read (Attribution.MarkDropped): the spans older than them
// then integrate to nothing, as spans before any tick do.
func (es *energySeries) update(s sampler.Series) {
	es.s = s
	if s.Len() == 0 && es.n == 0 {
		return
	}
	if es.n == 0 || s.First > es.kept {
		*es = energySeries{s: s, origin: s.First, kept: s.First}
	}
	es.held0 = int(s.First - es.origin)
	es.n = es.held0 + s.Len()
	if es.prefix == nil && len(s.Degraded) == 0 {
		es.prefixed = es.n
		return
	}
	for i := max(es.prefixed, 1); i < es.n; i++ {
		flagged := es.degradedAt(i)
		if es.prefix == nil {
			if !flagged {
				continue
			}
			es.prefix, es.prefixFrom = []float64{0}, i-1
		}
		p := es.prefix[len(es.prefix)-1]
		if flagged {
			p += es.time(i) - es.time(i-1)
		}
		es.prefix = append(es.prefix, p)
	}
	es.prefixed = es.n
}

// release records that the channel let go of the ticks before grid tick k,
// and lets go of their prefix.
func (es *energySeries) release(k int64) {
	es.kept = k
	if drop := min(int(k-es.origin)-es.prefixFrom, len(es.prefix)-1); drop > 0 {
		es.prefix, es.prefixFrom = es.prefix[drop:], es.prefixFrom+drop
	}
}

// degPrefix returns the cumulative degraded time up to tick i, one the
// join still reads.
func (es *energySeries) degPrefix(i int) float64 {
	if i < es.prefixFrom {
		return 0
	}
	return es.prefix[i-es.prefixFrom]
}

// time returns tick i's time, held or not: the series' grid arithmetic
// reaches before its first held tick.
func (es *energySeries) time(i int) float64 { return es.s.TimeS(i - es.held0) }

// energy returns held tick i's cumulative energy.
func (es *energySeries) energy(i int) float64 { return *es.s.Energies.At(i - es.held0) }

// degradedAt reports whether tick i >= 1 is flagged: the interval ending
// at it is degraded. (No interval ends at the first tick.)
func (es *energySeries) degradedAt(i int) bool {
	k := es.origin + int64(i)
	runs := es.s.Degraded
	r := sort.Search(len(runs), func(r int) bool { return runs[r].To > k })
	return r < len(runs) && runs[r].From <= k
}

// held returns the held position of grid tick k, a whole number, clamped
// to [0, n]; a NaN time clamps to n, as a search for it finds no tick.
func (es *energySeries) held(k float64) int {
	q := k - float64(es.origin)
	if !(q < float64(es.n)) {
		return es.n
	}
	if q > 0 {
		return int(q)
	}
	return 0
}

// lowerBound returns the first tick at or after t, n when there is none.
// ceil(t/period) is that tick's grid index to within one: the rounding of
// the quotient and of a tick's time each shift it by far less than a tick
// while indices stay far below 2^52. So one comparison each way against the
// tick's own time settles it, each the comparison a search over the
// emitted times makes.
func (es *energySeries) lowerBound(t float64) int {
	i := es.held(math.Ceil(t / es.s.PeriodS))
	if i > 0 && es.time(i-1) >= t {
		return i - 1
	}
	if i < es.n && es.time(i) < t {
		return i + 1
	}
	return i
}

// upperBound returns the first tick after t, n when there is none, as
// lowerBound does from floor(t/period)+1.
func (es *energySeries) upperBound(t float64) int {
	i := es.held(math.Floor(t/es.s.PeriodS) + 1)
	if i > 0 && es.time(i-1) > t {
		return i - 1
	}
	if i < es.n && es.time(i) <= t {
		return i + 1
	}
	return i
}

// window locates a span in the series: lo is the first tick at or after
// startS (n when there is none), hi the last tick at or before endS (-1
// when there is none). Every estimator below works from these two.
func (es *energySeries) window(startS, endS float64) (lo, hi int) {
	return es.lowerBound(startS), es.upperBound(endS) - 1
}

// degAt returns the cumulative degraded time up to t.
func (es *energySeries) degAt(t float64) float64 {
	n := es.n
	if es.prefix == nil || n == 0 || t <= es.time(0) {
		return 0
	}
	if t >= es.time(n-1) {
		return es.degPrefix(n - 1)
	}
	i := es.lowerBound(t)
	if es.time(i) == t {
		return es.degPrefix(i)
	}
	p := es.degPrefix(i - 1)
	if es.degradedAt(i) {
		p += t - es.time(i-1)
	}
	return p
}

// degradedOverlap returns the degraded time inside the span [startS, endS]
// whose window is lo, hi. Span time before the series' first tick counts:
// no sample covers it (a channel whose first reads failed takes its
// baseline late), so it integrates to nothing. An empty series flags
// nothing: its rows read 0 J and fail the gates. Spans too short to contain
// an interior sample interval are estimated from their *neighbor*
// intervals (atStart extends the preceding one, atEnd the following one),
// so for those the query widens to the borrowed intervals: such a span
// rests on estimated data even when its own time window is clean. The
// result is capped at the span duration so DegradedPct stays a fraction of
// the span.
func (es *energySeries) degradedOverlap(startS, endS float64, lo, hi int) float64 {
	n := es.n
	if endS <= startS || n == 0 {
		return 0
	}
	unseen := max(min(endS, es.time(0))-startS, 0)
	if es.prefix == nil {
		return unseen
	}
	if lo < n && hi >= 0 && hi > lo {
		// Interior-interval spans (integrate's exact path) draw only on
		// samples inside their window; strict overlap is the whole story.
		return unseen + es.degAt(endS) - es.degAt(startS)
	}
	padLo, padHi := startS, endS
	if i := es.intervalOfStart(startS, lo); i > 0 {
		padLo = es.time(i - 1)
	}
	if i := es.intervalOfEnd(endS, hi); i >= 0 && i+2 < n {
		padHi = es.time(i + 2)
	}
	return math.Min(unseen+es.degAt(padHi)-es.degAt(padLo), endS-startS)
}

// intervalOfStart returns the interval index i with time(i) <= t <
// time(i+1), or -1 when t is outside the series (including the exact last
// point), given lo, the first tick at or after t.
func (es *energySeries) intervalOfStart(t float64, lo int) int {
	n := es.n
	if n < 2 || t < es.time(0) || t >= es.time(n-1) {
		return -1
	}
	if es.time(lo) == t {
		return lo
	}
	return lo - 1
}

// intervalOfEnd is intervalOfStart given hi, the last tick at or before t —
// which, inside the series, is the interval's own index.
func (es *energySeries) intervalOfEnd(t float64, hi int) int {
	n := es.n
	if n < 2 || t < es.time(0) || t >= es.time(n-1) {
		return -1
	}
	return hi
}

// powerOf returns the mean power across interval i.
func (es *energySeries) powerOf(i int) float64 {
	dt := es.time(i+1) - es.time(i)
	if dt <= 0 {
		return 0
	}
	return (es.energy(i+1) - es.energy(i)) / dt
}

// clamp bounds an energy estimate inside interval i — the sampled series
// is monotone (the sampler clamps negative deltas), so the true value
// cannot leave the interval's energy range.
func (es *energySeries) clamp(e float64, i int) float64 {
	return math.Min(math.Max(e, es.energy(i)), es.energy(i+1))
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
	n := es.n
	if n == 0 {
		return 0
	}
	i := es.intervalOfStart(t, lo)
	if i < 0 {
		if t < es.time(0) {
			return es.energy(0)
		}
		return es.energy(n - 1)
	}
	before := i
	if i > 0 {
		before = i - 1
	}
	return es.clamp(es.energy(i)+es.powerOf(before)*(t-es.time(i)), i)
}

// atEnd estimates cumulative energy at a span's end time (hi being the
// last tick at or before it), mirroring atStart: the *following*
// interval's power is extended backwards to the boundary.
func (es *energySeries) atEnd(t float64, hi int) float64 {
	n := es.n
	if n == 0 {
		return 0
	}
	i := es.intervalOfEnd(t, hi)
	if i < 0 {
		if t < es.time(0) {
			return es.energy(0)
		}
		return es.energy(n - 1)
	}
	after := i
	if i+2 < n {
		after = i + 1
	}
	return es.clamp(es.energy(i+1)-es.powerOf(after)*(es.time(i+1)-t), i)
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
	n := es.n
	if lo < n && hi >= 0 && hi > lo {
		interior := es.energy(hi) - es.energy(lo)
		startEdge := 0.0
		if lo > 0 {
			startEdge = es.powerOf(lo) * (es.time(lo) - startS)
			startEdge = math.Min(startEdge, es.energy(lo)-es.energy(lo-1))
		}
		endEdge := 0.0
		if hi+1 < n {
			endEdge = es.powerOf(hi-1) * (endS - es.time(hi))
			endEdge = math.Min(endEdge, es.energy(hi+1)-es.energy(hi))
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
}

// row returns the row of the spans named name on rank.
func (t *table) row(rank int, name string) *Row {
	key := rowKey{rank: rank, name: name}
	row, ok := t.rows[key]
	if !ok {
		row = &Row{Rank: rank, Name: name}
		t.rows[key] = row
	}
	return row
}

// join is an attribution under construction: spans are folded into its
// rows one at a time, in whatever order their source holds them, and
// finish turns the rows into the result. Build feeds it a slice of spans
// (add), Online a tracer's records where they lie (addRecord).
type join struct {
	opts   Options
	series map[int]*energySeries
	// The series of the last span's rank: sources hand over one track's
	// spans after another's, so this saves the map probe.
	rank    int
	current *energySeries
	tables  [2]table

	tr    *telemetry.Tracer // Online's source
	plans []plan            // by identity, resolved on first sight
}

// plan is how the join reads the records of one interned identity,
// resolved from the tracer once: the table its spans are rows of (nil for
// neither), the slots of the table's truth key and of clock_mhz, and its
// rows by rank, so that finding a record's row is two slice indexings
// instead of hashing its name. The table's rows map stays the table of
// record: a row is entered here the first time its identity is seen on its
// rank.
type plan struct {
	resolved     bool
	table        *table
	name         string
	truth, clock telemetry.ArgSlot
	rows         []*Row
}

func newJoin(opts Options) *join {
	j := &join{opts: opts.defaulted(), rank: -1, series: map[int]*energySeries{}}
	j.tables[0] = table{category: "kernel", truthKey: "energy_j", rows: map[rowKey]*Row{}}
	j.tables[1] = table{category: "function", truthKey: "gpu_j", rows: map[rowKey]*Row{}}
	return j
}

// tableOf returns the table whose rows spans of category are, nil for
// neither.
func (j *join) tableOf(category string) *table {
	for i := range j.tables {
		if t := &j.tables[i]; t.category == category {
			return t
		}
	}
	return nil
}

// seriesOf returns the sampled series of rank, nil when the sampler did
// not cover it.
func (j *join) seriesOf(rank int) *energySeries {
	if rank != j.rank {
		j.rank, j.current = rank, j.series[rank]
	}
	return j.current
}

// add folds one span into its row. Only complete spans of the two tables'
// categories on rank tracks the sampler covered participate; everything
// else is ignored.
func (j *join) add(sp *telemetry.SpanEvent) {
	if sp.Track < 0 || sp.Instant {
		return
	}
	t := j.tableOf(sp.Category)
	if t == nil {
		return
	}
	s := j.seriesOf(sp.Track)
	if s == nil {
		return
	}
	truth, _ := sp.Arg(t.truthKey)
	clock, hasClock := sp.Arg("clock_mhz")
	lo, hi := s.window(sp.StartS, sp.StartS+sp.DurS)
	fold(t.row(sp.Track, sp.Name), s, sp.StartS, sp.DurS, lo, hi, truth, clock, hasClock)
}

// addRecord is add for one complete record of rank's track, whose series
// is s, read through its identity's plan. With wait, a record that s does
// not yet hold the ticks for is left unfolded: addRecord reports false.
func (j *join) addRecord(s *energySeries, rank int, ref telemetry.SpanRef, startS, durS, v0, v1 float64, wait bool) bool {
	p := j.plan(ref)
	if p.table == nil {
		return true
	}
	lo, hi := s.window(startS, startS+durS)
	if wait && !s.holds(hi) {
		return false
	}
	for rank >= len(p.rows) {
		p.rows = append(p.rows, nil)
	}
	row := p.rows[rank]
	if row == nil {
		row = p.table.row(rank, p.name)
		p.rows[rank] = row
	}
	fold(row, s, startS, durS, lo, hi, p.truth.Read(v0, v1), p.clock.Read(v0, v1), p.clock != telemetry.ArgAbsent)
	return true
}

// holds reports whether the series holds every tick the estimators read
// for a span whose window ends at hi, as the series the run ends with will:
// with tick hi+2 held, each branch that tests the series' length takes the
// path it takes on the final series, so the span's sums are those of a
// join after the run, to the bit.
func (es *energySeries) holds(hi int) bool { return hi+2 < es.n }

// plan returns ref's plan, resolving it on first sight.
func (j *join) plan(ref telemetry.SpanRef) *plan {
	for int(ref) >= len(j.plans) {
		j.plans = append(j.plans, plan{})
	}
	p := &j.plans[ref]
	if !p.resolved {
		category, name := j.tr.Identity(ref)
		*p = plan{resolved: true, table: j.tableOf(category), name: name}
		if p.table != nil {
			p.truth = j.tr.ArgSlot(ref, p.table.truthKey)
			p.clock = j.tr.ArgSlot(ref, "clock_mhz")
		}
	}
	return p
}

// fold adds one span over [startS, startS+durS], whose window in s is lo,
// hi, to row: its model energy truth, the energy s sampled across it and,
// when the span has a clock argument, its clock weighted by its duration.
func fold(row *Row, s *energySeries, startS, durS float64, lo, hi int, truth, clock float64, hasClock bool) {
	row.Calls++
	row.TimeS += durS
	row.ModelJ += truth
	endS := startS + durS
	row.SampledJ += s.integrate(startS, endS, lo, hi)
	row.degradedS += s.degradedOverlap(startS, endS, lo, hi)
	if hasClock {
		row.clockWeight += clock * durS
	}
}

// Build joins spans against sampled series, each read where it lies
// (sampler.Sampler.RankSeries). Only spans in the categories "kernel"
// (ground truth in the "energy_j" arg) and "function" (ground truth in the
// "gpu_j" arg) on rank tracks participate; everything else is ignored.
func Build(spans []telemetry.SpanEvent, series map[int]sampler.Series, opts Options) *Attribution {
	j := newJoin(opts)
	for rank, s := range series {
		j.series[rank] = newEnergySeries(s)
	}
	for i := range spans {
		j.add(&spans[i])
	}
	return j.finish()
}

// Online is the join of a run in progress: the tracer's rank-track records
// against the sampler's rank channels, folded while the run runs. Each
// rank's records fold in recording order, from a cursor into its track,
// each as soon as its channel holds every tick the record reads (holds),
// so the result is Build's over the run's spans and whole series to the
// bit; and each channel lets go of the ticks that no record left waiting
// reads, so a ring holds about the last step, not the run. Like the tracer
// and the sampler, it belongs to the goroutine that drives the run.
type Online struct {
	j     *join
	ranks []live
}

// live is one rank's place in an online join.
type live struct {
	rank   int
	ch     *sampler.Channel
	s      *energySeries
	cursor telemetry.Cursor // the first record of the rank's track not yet folded
}

// NewOnline starts the join of the records tr will hold against the rank
// channels smp has now.
func NewOnline(tr *telemetry.Tracer, smp *sampler.Sampler, opts Options) *Online {
	o := &Online{j: newJoin(opts)}
	o.j.tr = tr
	for _, ch := range smp.Channels() {
		if rank := ch.Stats().Rank; rank >= 0 {
			s := &energySeries{}
			o.j.series[rank] = s
			o.ranks = append(o.ranks, live{rank: rank, ch: ch, s: s})
		}
	}
	return o
}

// Advance folds the records whose ticks the channels now hold and lets the
// channels go of the ticks before the oldest record left waiting. Every
// record not yet recorded must start at or after nowS: the ticks such a
// record reads are kept too. A nil *Online does nothing.
func (o *Online) Advance(nowS float64) {
	if o == nil {
		return
	}
	for i := range o.ranks {
		l := &o.ranks[i]
		o.fold(l, true)
		s := l.s
		if s.n == 0 {
			continue
		}
		oldest := nowS
		o.j.tr.ReadRecords(l.rank, l.cursor, func(ref telemetry.SpanRef, startS, _, _, _ float64) bool {
			if startS < oldest && o.j.plan(ref).table != nil {
				oldest = startS
			}
			return true
		})
		// A span reads from the tick before the last tick at or before its
		// start; the quotient may round across a tick, hence two. The
		// newest tick stays.
		if k := math.Floor(oldest/s.s.PeriodS) - 2; k > float64(s.kept) {
			newest := s.s.First + int64(s.s.Len()) - 1
			k := int64(min(k, float64(newest)))
			l.ch.Release(k)
			s.release(k)
		}
	}
}

// Finish folds the records still waiting against the series the run ended
// with and returns the attribution.
func (o *Online) Finish() *Attribution {
	for i := range o.ranks {
		o.fold(&o.ranks[i], false)
	}
	return o.j.finish()
}

// fold points l's series at the ticks its channel holds and folds l's
// records from its cursor on: with wait, up to the first whose ticks are
// not all in.
func (o *Online) fold(l *live, wait bool) {
	l.s.update(l.ch.Series())
	l.cursor = o.j.tr.ReadRecords(l.rank, l.cursor, func(ref telemetry.SpanRef, startS, durS, v0, v1 float64) bool {
		return o.j.addRecord(l.s, l.rank, ref, startS, durS, v0, v1, wait)
	})
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
			rs = &RankSummary{Rank: r.Rank, Samples: j.series[r.Rank].n}
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
		// (`inspect energy` re-aggregates rows read from disk), so rebuild
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
