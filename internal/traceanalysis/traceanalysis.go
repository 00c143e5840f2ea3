// Package traceanalysis computes critical-path and straggler diagnostics
// from the repository's Chrome trace_event exports (telemetry.Tracer) or
// directly from in-process span read-backs.
//
// The analysis keys on the bulk-synchronous structure mpisim records: every
// barrier emits one "mpi"/"barrier-wait" span per waiting rank, and all
// waits of the same barrier share an end time — the barrier's virtual time.
// A rank that imposed the barrier (the straggler of that phase) has no wait
// span there; it is identified as a barrier participant — a rank with any
// span ending inside the inter-barrier window — that did not wait. Each
// barrier's total wait is then attributed to its critical rank(s), yielding
// the per-rank "wait caused" ranking, and the window before a barrier with
// one critical rank is that rank's stretch of the critical path: each
// rank's total is the share of the run's wall time that depended on it.
// The result holds one record per rank and the run's totals, however many
// barriers the trace holds.
package traceanalysis

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// GlobalRank marks spans recorded on the whole-run ("sim") track rather
// than a rank track.
const GlobalRank = -1

// Span is one complete span of the trace, times in virtual seconds.
type Span struct {
	// Rank is the rank track the span was recorded on, GlobalRank for the
	// global track.
	Rank   int
	Cat    string
	Name   string
	StartS float64
	DurS   float64
}

// EndS returns the span's end time.
func (s Span) EndS() float64 { return s.StartS + s.DurS }

// isWait reports whether the span is an mpisim barrier wait.
func (s Span) isWait() bool { return s.Cat == "mpi" && s.Name == "barrier-wait" }

// barrierEpsS is the end-time tolerance when grouping wait spans into
// barriers, absorbing the µs-granularity round-trip of the trace JSON: one
// trace tick.
const barrierEpsS = 1e-6

// Options tunes the analysis.
type Options struct {
	// TopK bounds the straggler ranking (default 3).
	TopK int
}

func (o Options) defaulted() Options {
	if o.TopK <= 0 {
		o.TopK = 3
	}
	return o
}

// RankStat aggregates one rank's standing across the run.
type RankStat struct {
	Rank int `json:"rank"`
	// BusyS is the interval-union extent of the rank's non-wait spans.
	BusyS float64 `json:"busy_s"`
	// WaitS is the total time the rank spent in barrier waits.
	WaitS float64 `json:"wait_s"`
	// CausedWaitS is the barrier wait attributed to this rank: the summed
	// waits of every barrier where it was critical (split on ties).
	CausedWaitS float64 `json:"caused_wait_s"`
	// CriticalCount is the number of barriers this rank was critical for.
	CriticalCount int `json:"critical_count"`
	// PathS is the rank's time on the critical path: the summed windows,
	// each from the previous barrier (or 0) to the next, that end at a
	// barrier this rank alone was critical for.
	PathS float64 `json:"path_s"`
	// PathSegments is the number of those barriers.
	PathSegments int `json:"path_segments"`
}

// Analysis is the full diagnostic result. Its size is bounded by the
// ranks, whatever the number of steps the trace holds.
type Analysis struct {
	// WallS is the span extent of the trace (max end over all spans).
	WallS float64 `json:"wall_s"`
	// BarrierCount is the number of reconstructed synchronization points.
	BarrierCount int `json:"barrier_count"`
	// Ranks holds per-rank statistics in rank order.
	Ranks []RankStat `json:"ranks"`
	// TotalWaitS sums all barrier waits.
	TotalWaitS float64 `json:"total_wait_s"`
	// AttributedWaitS is the portion of TotalWaitS assigned to identified
	// critical ranks. The gap to TotalWaitS measures how much of the wait
	// the trace did not carry enough context to attribute.
	AttributedWaitS float64 `json:"attributed_wait_s"`
	// Stragglers ranks the TopK ranks by CausedWaitS, descending.
	Stragglers []RankStat `json:"stragglers"`
}

// interval is a non-wait rank-track span as the analysis reads it.
type interval struct{ start, end float64 }

// wait is a barrier-wait span as the analysis reads it; slot is its rank's
// index into Analyze's per-rank tables.
type wait struct {
	end, dur float64
	slot     int
}

// compareFloat orders a and b by < alone, as the less functions sort.Slice
// was given did (cmp.Compare would order NaNs first).
func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// Analyze reconstructs barriers, attribution and the critical path from a
// span set, folding each barrier into the per-rank records as it goes.
// Spans on the global track contribute to WallS but are excluded from the
// rank participant logic.
//
// The spans are read twice and copied into pointer-free records: a first
// pass gives each rank track a slot in order of first appearance and counts
// its non-wait spans, a second lays their intervals out contiguously per
// slot and collects the waits. Both are sorted in place by slices.SortFunc
// — the pdqsort sort.Slice runs — on the keys a sort of Span copies used,
// so entries with equal keys (the waits of one barrier) come out in the
// same order and the float sums over them keep their bits.
func Analyze(spans []Span, opt Options) *Analysis {
	opt = opt.defaulted()
	a := &Analysis{}

	// tags[i] is span i's slot times two plus one for a wait, -1 on the
	// global track.
	tags := make([]int32, len(spans))
	slotOf := map[int]int{}
	var stats []RankStat // by slot
	var counts []int     // non-wait spans by slot
	nwaits := 0
	lastRank, lastSlot := GlobalRank, -1
	for i := range spans {
		s := &spans[i]
		if e := s.EndS(); e > a.WallS {
			a.WallS = e
		}
		if s.Rank == GlobalRank {
			tags[i] = -1
			continue
		}
		if s.Rank != lastRank {
			k, ok := slotOf[s.Rank]
			if !ok {
				k = len(stats)
				slotOf[s.Rank] = k
				stats = append(stats, RankStat{Rank: s.Rank})
				counts = append(counts, 0)
			}
			lastRank, lastSlot = s.Rank, k
		}
		if s.isWait() {
			tags[i] = int32(2*lastSlot + 1)
			stats[lastSlot].WaitS += s.DurS
			nwaits++
			continue
		}
		tags[i] = int32(2 * lastSlot)
		counts[lastSlot]++
	}

	// off[k]:off[k+1] is slot k's run of intervals (and of their ends).
	off := make([]int, len(stats)+1)
	for k, c := range counts {
		off[k+1] = off[k] + c
	}
	ivs := make([]interval, off[len(stats)])
	waits := make([]wait, 0, nwaits)
	next := counts // from here on, each slot's fill cursor
	copy(next, off)
	for i, tag := range tags {
		if tag < 0 {
			continue
		}
		s := &spans[i]
		k := int(tag >> 1)
		if tag&1 == 1 {
			waits = append(waits, wait{end: s.EndS(), dur: s.DurS, slot: k})
			continue
		}
		ivs[next[k]] = interval{start: s.StartS, end: s.EndS()}
		next[k]++
	}

	// Per slot: busy time from the intervals sorted by start, then the
	// sorted end times for the participant probe.
	ends := make([]float64, len(ivs))
	for k := range stats {
		run := ivs[off[k]:off[k+1]]
		if len(run) == 0 {
			continue
		}
		slices.SortFunc(run, func(x, y interval) int { return compareFloat(x.start, y.start) })
		stats[k].BusyS = intervalUnionS(run)
		es := ends[off[k]:off[k+1]]
		for i, iv := range run {
			es[i] = iv.end
		}
		sort.Float64s(es)
	}

	// Group wait spans into barriers by shared end time.
	slices.SortFunc(waits, func(x, y wait) int { return compareFloat(x.end, y.end) })
	// waitingAt[k] is the number of the last barrier slot k waited at,
	// counting from 1.
	waitingAt := make([]int, len(stats))
	var critical []int // the current barrier's critical slots
	prevT := math.Inf(-1)
	for i := 0; i < len(waits); {
		j := i + 1
		barrierT := waits[i].end
		for j < len(waits) && waits[j].end-barrierT <= barrierEpsS {
			if e := waits[j].end; e > barrierT {
				barrierT = e
			}
			j++
		}
		a.BarrierCount++
		waitS := 0.0
		for _, w := range waits[i:j] {
			waitS += w.dur
			waitingAt[w.slot] = a.BarrierCount
		}
		// Participants: ranks with any span ending inside (prevT, barrierT].
		// The critical rank's own work span ends at the barrier; dead ranks
		// have nothing in the window and drop out.
		critical = critical[:0]
		for k := range stats {
			if waitingAt[k] != a.BarrierCount && hasEndIn(ends[off[k]:off[k+1]], prevT, barrierT+barrierEpsS) {
				critical = append(critical, k)
			}
		}
		if len(critical) > 0 {
			share := waitS / float64(len(critical))
			for _, k := range critical {
				stats[k].CausedWaitS += share
				stats[k].CriticalCount++
			}
			a.AttributedWaitS += waitS
		}
		a.TotalWaitS += waitS
		// The window since the previous barrier (since 0 for the first) is
		// on the critical path of the barrier's one critical rank; a tie
		// puts it on nobody's.
		if len(critical) == 1 {
			from := prevT
			if math.IsInf(from, -1) {
				from = 0
			}
			st := &stats[critical[0]]
			st.PathS += barrierT - from
			st.PathSegments++
		}
		prevT = barrierT
		i = j
	}

	a.Ranks = stats
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

// hasEndIn reports whether the sorted end-time slice has a value in (lo, hi].
func hasEndIn(es []float64, lo, hi float64) bool {
	i := sort.SearchFloat64s(es, math.Nextafter(lo, math.Inf(1)))
	return i < len(es) && es[i] <= hi
}

// intervalUnionS returns the total extent covered by intervals sorted by
// start, overlaps counted once (function spans contain their kernel spans).
func intervalUnionS(sorted []interval) float64 {
	total := 0.0
	curStart, curEnd := sorted[0].start, sorted[0].end
	for _, iv := range sorted[1:] {
		if iv.start > curEnd {
			total += curEnd - curStart
			curStart, curEnd = iv.start, iv.end
			continue
		}
		if iv.end > curEnd {
			curEnd = iv.end
		}
	}
	return total + (curEnd - curStart)
}

// Load parses Chrome trace_event JSON into analysis spans. Track identity
// follows the exporter's convention: thread_name metadata names rank tracks
// "rank N" and the global track "sim"; tracks named "sim" map to
// GlobalRank, every other tid is taken as the rank number directly.
//
// Load reads the document with a single-pass scanner (scan.go), which reads
// a long trace in two halves at once when it has a second CPU: the calling
// goroutine walks the first half, a tail goroutine the second from the
// first event boundary past the middle, and the walk adopts the tail's
// result when it arrives at that boundary (it walks on alone when the
// boundary was one inside a string). It reads
// the "traceEvents" array of the top-level object and, of each event, only
// name, cat, ph, ts, dur, tid and args.name, skipping everything else
// structurally. Keys match exactly — the trace_event format is
// case-sensitive — the last of a repeated key wins, and null reads as
// absent; a known key holding the wrong type is an error. A document that
// does not parse to its end, a cut one included, is an error and no spans.
func Load(data []byte) ([]Span, error) {
	return whole(scan(data))
}

// whole is the verdict on a walk: its spans when the document parsed to
// its end, none and the walk's error otherwise.
func whole(spans []Span, err error) ([]Span, error) {
	if err != nil {
		return nil, fmt.Errorf("traceanalysis: parse trace: %w", err)
	}
	return spans, nil
}

// LoadFile reads and parses a trace file: Load(os.ReadFile(path)), to the
// spans and the error text, but that a parse error is prefixed with the
// file's path. A file Load would read in two halves is also read from disk
// in two halves at once: the calling goroutine reads the first half and
// then walks the document from its start, the tail goroutine reads the
// second half and scans it from its first event boundary on.
func LoadFile(path string) ([]Span, error) {
	data, t, err := readFile(path)
	if err != nil {
		return nil, fmt.Errorf("traceanalysis: %w", err)
	}
	var spans []Span
	if t == nil {
		spans, err = Load(data)
	} else {
		spans, err = whole(scanWith(data, t))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spans, nil
}

// Render formats the analysis as a human-readable report.
func Render(a *Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %.3f s wall, %d barriers, %d ranks\n",
		a.WallS, a.BarrierCount, len(a.Ranks))
	fmt.Fprintf(&b, "barrier wait: %.4f s total", a.TotalWaitS)
	if a.TotalWaitS > 0 {
		fmt.Fprintf(&b, " (%.1f%% attributed to critical ranks)",
			100*a.AttributedWaitS/a.TotalWaitS)
	}
	b.WriteString("\n\n")

	if len(a.Stragglers) > 0 && a.Stragglers[0].CausedWaitS > 0 {
		b.WriteString("top straggler ranks (by wait imposed on others):\n")
		fmt.Fprintf(&b, "  %-6s %12s %10s %12s %10s\n",
			"rank", "caused-wait", "critical", "own-wait", "busy")
		for _, s := range a.Stragglers {
			if s.CausedWaitS == 0 {
				break
			}
			fmt.Fprintf(&b, "  %-6d %11.4fs %10d %11.4fs %9.3fs\n",
				s.Rank, s.CausedWaitS, s.CriticalCount, s.WaitS, s.BusyS)
		}
		b.WriteString("\n")
	}

	if a.BarrierCount > 0 {
		var onPath []RankStat
		for _, r := range a.Ranks {
			if r.PathSegments > 0 {
				onPath = append(onPath, r)
			}
		}
		slices.SortStableFunc(onPath, func(x, y RankStat) int { return compareFloat(y.PathS, x.PathS) })
		b.WriteString("critical path (time each rank set the pace):\n")
		for _, r := range onPath {
			fmt.Fprintf(&b, "  rank %-4d %9.4fs across %d segment(s)\n", r.Rank, r.PathS, r.PathSegments)
		}
	}
	return b.String()
}
