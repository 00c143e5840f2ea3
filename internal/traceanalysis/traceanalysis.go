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
// the per-rank "wait caused" ranking and the step-by-step critical path:
// the sequence of ranks the run's wall time actually depended on.
package traceanalysis

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"sphenergy/internal/telemetry"
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

// Options tunes the analysis.
type Options struct {
	// EpsS is the end-time tolerance when grouping wait spans into
	// barriers, absorbing the µs-granularity round-trip of the trace JSON.
	// Default 1e-6 (one trace tick).
	EpsS float64
	// TopK bounds the straggler ranking (default 3).
	TopK int
}

func (o Options) defaulted() Options {
	if o.EpsS <= 0 {
		o.EpsS = 1e-6
	}
	if o.TopK <= 0 {
		o.TopK = 3
	}
	return o
}

// Barrier is one reconstructed synchronization point.
type Barrier struct {
	// TimeS is the barrier's virtual time (the shared wait end time).
	TimeS float64 `json:"time_s"`
	// WaitS is the total wait the barrier imposed, summed over waiters.
	WaitS float64 `json:"wait_s"`
	// MaxWaitS is the longest single rank wait.
	MaxWaitS float64 `json:"max_wait_s"`
	// Waiters lists the ranks that recorded a wait span at this barrier.
	Waiters []int `json:"waiters"`
	// Critical lists the participants that did not wait — the rank(s) the
	// barrier's time was determined by. Empty when the trace carries no
	// non-wait spans to identify the participant set.
	Critical []int `json:"critical"`
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
}

// Segment is one stretch of the critical path between consecutive barriers.
type Segment struct {
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	// Rank is the critical rank of the barrier closing the segment, or
	// GlobalRank when it could not be identified (or was tied).
	Rank int `json:"rank"`
}

// Analysis is the full diagnostic result.
type Analysis struct {
	// WallS is the span extent of the trace (max end over all spans).
	WallS float64 `json:"wall_s"`
	// Barriers lists the reconstructed synchronization points in time order.
	Barriers []Barrier `json:"barriers"`
	// Ranks holds per-rank statistics in rank order.
	Ranks []RankStat `json:"ranks"`
	// TotalWaitS sums all barrier waits.
	TotalWaitS float64 `json:"total_wait_s"`
	// AttributedWaitS is the portion of TotalWaitS assigned to identified
	// critical ranks. The gap to TotalWaitS measures how much of the wait
	// the trace did not carry enough context to attribute.
	AttributedWaitS float64 `json:"attributed_wait_s"`
	// CriticalPath is the barrier-to-barrier segment chain.
	CriticalPath []Segment `json:"critical_path"`
	// Stragglers ranks the TopK ranks by CausedWaitS, descending.
	Stragglers []RankStat `json:"stragglers"`
	// Truncated marks an analysis of spans LoadLenient recovered from a
	// trace cut off mid-write: it covers the events that had closed before
	// the cut, not the run. Set by the caller that loaded them.
	Truncated bool `json:"truncated,omitempty"`
}

// CausedWaitS returns the wait attributed to one rank, 0 for unknown ranks.
func (a *Analysis) CausedWaitS(rank int) float64 {
	for _, r := range a.Ranks {
		if r.Rank == rank {
			return r.CausedWaitS
		}
	}
	return 0
}

// Analyze reconstructs barriers, attribution and the critical path from a
// span set. Spans on the global track contribute to WallS but are excluded
// from the rank participant logic.
func Analyze(spans []Span, opt Options) *Analysis {
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
		stat(r).BusyS = intervalUnionS(ss)
	}

	// Group wait spans into barriers by shared end time.
	sort.Slice(waits, func(i, j int) bool { return waits[i].EndS() < waits[j].EndS() })
	// Rank-track span end times, sorted per rank for the participant probe.
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
		for j < len(waits) && waits[j].EndS()-barrierT <= opt.EpsS {
			if e := waits[j].EndS(); e > barrierT {
				barrierT = e
			}
			j++
		}
		b := Barrier{TimeS: barrierT}
		waiting := map[int]bool{}
		for _, w := range waits[i:j] {
			b.WaitS += w.DurS
			if w.DurS > b.MaxWaitS {
				b.MaxWaitS = w.DurS
			}
			if !waiting[w.Rank] {
				waiting[w.Rank] = true
				b.Waiters = append(b.Waiters, w.Rank)
			}
		}
		sort.Ints(b.Waiters)
		// Participants: ranks with any span ending inside (prevT, barrierT].
		// The critical rank's own work span ends at the barrier; dead ranks
		// have nothing in the window and drop out.
		for r, es := range ends {
			if waiting[r] {
				continue
			}
			if hasEndIn(es, prevT, barrierT+opt.EpsS) {
				b.Critical = append(b.Critical, r)
			}
		}
		sort.Ints(b.Critical)
		if len(b.Critical) > 0 {
			share := b.WaitS / float64(len(b.Critical))
			for _, r := range b.Critical {
				st := stat(r)
				st.CausedWaitS += share
				st.CriticalCount++
			}
			a.AttributedWaitS += b.WaitS
		}
		a.TotalWaitS += b.WaitS

		seg := Segment{StartS: prevT, EndS: barrierT, Rank: GlobalRank}
		if math.IsInf(prevT, -1) {
			seg.StartS = 0
		}
		if len(b.Critical) == 1 {
			seg.Rank = b.Critical[0]
		}
		a.CriticalPath = append(a.CriticalPath, seg)
		a.Barriers = append(a.Barriers, b)
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

// hasEndIn reports whether the sorted end-time slice has a value in (lo, hi].
func hasEndIn(es []float64, lo, hi float64) bool {
	i := sort.SearchFloat64s(es, math.Nextafter(lo, math.Inf(1)))
	return i < len(es) && es[i] <= hi
}

// intervalUnionS returns the total extent covered by the spans' intervals,
// overlaps counted once (function spans contain their kernel spans).
func intervalUnionS(ss []Span) float64 {
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

// FromSpanEvents converts a tracer read-back into the analysis span form,
// dropping instant events (they carry no duration).
func FromSpanEvents(events []telemetry.SpanEvent) []Span {
	out := make([]Span, 0, len(events))
	for _, e := range events {
		if e.Instant {
			continue
		}
		r := e.Track
		if r == telemetry.GlobalTrack {
			r = GlobalRank
		}
		out = append(out, Span{Rank: r, Cat: e.Category, Name: e.Name,
			StartS: e.StartS, DurS: e.DurS})
	}
	return out
}

// Load parses Chrome trace_event JSON into analysis spans. Track identity
// follows the exporter's convention: thread_name metadata names rank tracks
// "rank N" and the global track "sim"; tracks named "sim" map to
// GlobalRank, every other tid is taken as the rank number directly.
//
// Load and LoadLenient share one single-pass scanner (scan.go). It reads
// the "traceEvents" array of the top-level object and, of each event, only
// name, cat, ph, ts, dur, tid and args.name, skipping everything else
// structurally. Keys match exactly — the trace_event format is
// case-sensitive — the last of a repeated key wins, and null reads as
// absent; a known key holding the wrong type is an error.
func Load(data []byte) ([]Span, error) {
	spans, _, err := scan(data)
	if err != nil {
		return nil, fmt.Errorf("traceanalysis: parse trace: %w", err)
	}
	return spans, nil
}

// LoadLenient parses a trace that may have been cut off mid-write — a
// killed run, a full disk, a signal-flushed partial export. Where Load
// fails it keeps what the scanner had by then: the spans of every event
// that closed before the malformed or missing byte, reported with
// truncated=true. The error is non-nil only when not one whole event
// preceded it.
func LoadLenient(data []byte) (spans []Span, truncated bool, err error) {
	spans, events, err := scan(data)
	switch {
	case err == nil:
		return spans, false, nil
	case events == 0:
		return nil, true, fmt.Errorf("traceanalysis: parse trace: %w", err)
	}
	return spans, true, nil
}

// LoadFile reads and parses a trace file.
func LoadFile(path string) ([]Span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("traceanalysis: %w", err)
	}
	return Load(data)
}

// LoadFileLenient reads and parses a possibly-truncated trace file.
func LoadFileLenient(path string) ([]Span, bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("traceanalysis: %w", err)
	}
	return LoadLenient(data)
}

// Render formats the analysis as a human-readable report.
func Render(a *Analysis) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %.3f s wall, %d barriers, %d ranks",
		a.WallS, len(a.Barriers), len(a.Ranks))
	if a.Truncated {
		b.WriteString(" (truncated trace: covers the events that closed before the cut)")
	}
	b.WriteString("\n")
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

	if n := len(a.CriticalPath); n > 0 {
		onPath := map[int]float64{}
		for _, seg := range a.CriticalPath {
			if seg.Rank != GlobalRank {
				onPath[seg.Rank] += seg.EndS - seg.StartS
			}
		}
		type share struct {
			rank int
			s    float64
		}
		var shares []share
		for r, s := range onPath {
			shares = append(shares, share{r, s})
		}
		sort.Slice(shares, func(i, j int) bool { return shares[i].s > shares[j].s })
		b.WriteString("critical path (time each rank set the pace):\n")
		for _, sh := range shares {
			fmt.Fprintf(&b, "  rank %-4d %9.4fs across %d segment(s)\n",
				sh.rank, sh.s, countSegments(a.CriticalPath, sh.rank))
		}
	}
	return b.String()
}

func countSegments(path []Segment, rank int) int {
	n := 0
	for _, seg := range path {
		if seg.Rank == rank {
			n++
		}
	}
	return n
}
