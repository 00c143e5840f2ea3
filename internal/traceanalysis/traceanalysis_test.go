package traceanalysis

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"sphenergy/internal/mpisim"
	"sphenergy/internal/telemetry"
)

// syntheticTrace builds a 3-rank, 2-barrier trace with rank 2 as the known
// straggler: every phase, ranks 0 and 1 finish at 1.0/1.2 into the phase
// while rank 2 takes 2.0, so each barrier imposes 1.0+0.8 s of wait, all
// caused by rank 2.
func syntheticTrace() []Span {
	var spans []Span
	t := 0.0
	for phase := 0; phase < 2; phase++ {
		durs := []float64{1.0, 1.2, 2.0}
		barrier := t + 2.0
		for r, d := range durs {
			spans = append(spans, Span{Rank: r, Cat: "kernel", Name: "work", StartS: t, DurS: d})
			if wait := barrier - (t + d); wait > 0 {
				spans = append(spans, Span{Rank: r, Cat: "mpi", Name: "barrier-wait",
					StartS: t + d, DurS: wait})
			}
		}
		t = barrier
	}
	// A global-track step span must not join the participant logic.
	spans = append(spans, Span{Rank: GlobalRank, Cat: "step", Name: "step 0", StartS: 0, DurS: t})
	return spans
}

func TestAnalyzeSyntheticStraggler(t *testing.T) {
	a := Analyze(syntheticTrace(), Options{})
	if a.BarrierCount != 2 {
		t.Fatalf("barriers = %d, want 2", a.BarrierCount)
	}
	// Rank 2 alone is critical at both barriers, and the whole run is its
	// critical path; the others wait at both.
	for _, r := range a.Ranks {
		want := RankStat{Rank: r.Rank, BusyS: r.BusyS, WaitS: r.WaitS}
		if r.Rank == 2 {
			want.CausedWaitS, want.CriticalCount, want.PathS, want.PathSegments = r.CausedWaitS, 2, 4, 2
		}
		if r != want {
			t.Errorf("rank %d = %+v, want %+v", r.Rank, r, want)
		}
	}
	if got := a.Ranks[1].WaitS; math.Abs(got-1.6) > 1e-9 {
		t.Errorf("rank 1 wait = %g, want 1.6", got)
	}
	if math.Abs(a.TotalWaitS-3.6) > 1e-9 || math.Abs(a.AttributedWaitS-3.6) > 1e-9 {
		t.Errorf("wait totals = %g attributed %g, want 3.6 both", a.TotalWaitS, a.AttributedWaitS)
	}
	if got := a.CausedWaitS(2); math.Abs(got-3.6) > 1e-9 {
		t.Errorf("rank 2 caused wait = %g, want 3.6", got)
	}
	if a.Stragglers[0].Rank != 2 {
		t.Errorf("top straggler = %d, want 2", a.Stragglers[0].Rank)
	}
	if a.WallS != 4.0 {
		t.Errorf("wall = %g, want 4", a.WallS)
	}
	// Busy union: rank 2 worked the whole time, rank 0 half of it.
	if got := a.Ranks[2].BusyS; math.Abs(got-4.0) > 1e-9 {
		t.Errorf("rank 2 busy = %g, want 4", got)
	}
	if got := a.Ranks[0].WaitS; math.Abs(got-2.0) > 1e-9 {
		t.Errorf("rank 0 wait = %g, want 2", got)
	}
}

func TestAnalyzeJSONRoundTrip(t *testing.T) {
	// The same trace through the Chrome JSON exporter and Load must yield
	// the same verdict — this is the `inspect trace` input path.
	tr := telemetry.NewTracer(3)
	for r := 0; r < 3; r++ {
		tr.SetTrackName(r, "rank "+string(rune('0'+r)))
	}
	tr.SetTrackName(telemetry.GlobalTrack, "sim")
	for _, s := range syntheticTrace() {
		track := s.Rank
		if track == GlobalRank {
			track = telemetry.GlobalTrack
		}
		tr.RecordSpan(track, s.Cat, s.Name, s.StartS, s.DurS)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	spans, err := Load(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(spans, Options{})
	if a.BarrierCount != 2 || a.CausedWaitS(2) < 3.6-1e-6 {
		t.Fatalf("round-tripped analysis degraded: %d barriers, caused=%g",
			a.BarrierCount, a.CausedWaitS(2))
	}
	// Global-track spans must have been excluded from rank stats.
	for _, r := range a.Ranks {
		if r.Rank == GlobalRank {
			t.Error("global track leaked into rank stats")
		}
	}
}

func TestAnalyzeDeadRankExcluded(t *testing.T) {
	// Rank 1 dies after the first barrier: it must not be counted critical
	// for the second barrier it never reached.
	spans := []Span{
		{Rank: 0, Cat: "kernel", Name: "w", StartS: 0, DurS: 1},
		{Rank: 1, Cat: "kernel", Name: "w", StartS: 0, DurS: 2},
		{Rank: 0, Cat: "mpi", Name: "barrier-wait", StartS: 1, DurS: 1},
		// Second phase: rank 1 is dead; rank 0 runs alone, no wait spans.
		{Rank: 0, Cat: "kernel", Name: "w", StartS: 2, DurS: 1},
	}
	a := Analyze(spans, Options{})
	if a.BarrierCount != 1 {
		t.Fatalf("barriers = %d, want 1", a.BarrierCount)
	}
	if r0, r1 := a.Ranks[0], a.Ranks[1]; r0.CriticalCount != 0 || r1.CriticalCount != 1 || r1.PathSegments != 1 {
		t.Errorf("ranks = %+v, want rank 1 alone critical, once", a.Ranks)
	}
}

func TestAnalyzeEmptyAndWaitOnly(t *testing.T) {
	a := Analyze(nil, Options{})
	if a.TotalWaitS != 0 || a.BarrierCount != 0 || a.Ranks != nil || a.Stragglers != nil {
		t.Errorf("empty analysis = %+v", a)
	}
	// Wait spans without any work spans: the barrier is reconstructed but
	// no critical rank can be identified; attribution stays at 0.
	a = Analyze([]Span{
		{Rank: 0, Cat: "mpi", Name: "barrier-wait", StartS: 0, DurS: 1},
	}, Options{})
	if a.BarrierCount != 1 || a.Ranks[0].CriticalCount != 0 || a.Ranks[0].PathSegments != 0 {
		t.Fatalf("wait-only analysis = %+v", a)
	}
	if a.AttributedWaitS != 0 || a.TotalWaitS != 1 {
		t.Errorf("attribution = %g/%g, want 0/1", a.AttributedWaitS, a.TotalWaitS)
	}
}

// TestMpisimStragglerAttribution validates the engine against a real mpisim
// run: rank 1 is slowed 4× inside its own phase, and the analysis must
// attribute at least 90% of the added barrier wait (vs. the healthy run) to
// that rank.
func TestMpisimStragglerAttribution(t *testing.T) {
	run := func(slow bool) *Analysis {
		const ranks, phases = 4, 20
		net := mpisim.DefaultNetwork(ranks)
		w := mpisim.NewWorld(ranks, net, 7)
		tr := telemetry.NewTracer(ranks)
		for p := 0; p < phases; p++ {
			starts := make([]float64, ranks)
			durs := w.Execute(func(r int) float64 {
				starts[r] = w.Clock(r)
				d := 0.1 * w.Jitter(r, 0.05)
				if slow && r == 1 {
					d *= 4
				}
				return d
			})
			// Record each rank's work span and barrier wait the way the
			// runner does: the work from the rank's clock for its own
			// duration, the wait from the end of that work.
			for r, d := range durs {
				tr.RecordSpan(r, "kernel", "work", starts[r], d)
			}
			for r, wt := range w.Synchronize(durs) {
				if wt > 0 {
					tr.RecordSpan(r, "mpi", "barrier-wait", w.Clock(r)-wt, wt)
				}
			}
		}
		return Analyze(FromSpanEvents(tr.Spans()), Options{})
	}

	healthy := run(false)
	slowed := run(true)

	addedWait := slowed.TotalWaitS - healthy.TotalWaitS
	if addedWait <= 0 {
		t.Fatalf("straggler did not add wait: healthy %g, slowed %g",
			healthy.TotalWaitS, slowed.TotalWaitS)
	}
	addedCaused := slowed.CausedWaitS(1) - healthy.CausedWaitS(1)
	if frac := addedCaused / addedWait; frac < 0.9 {
		t.Errorf("attributed %.1f%% of added wait to rank 1, want >= 90%% "+
			"(added %.4fs, attributed %.4fs)", 100*frac, addedWait, addedCaused)
	}
	if slowed.Stragglers[0].Rank != 1 {
		t.Errorf("top straggler = %d, want 1", slowed.Stragglers[0].Rank)
	}
	// Every barrier in the slowed run should be critical on rank 1 alone.
	if frac := float64(slowed.Ranks[1].PathSegments) / float64(slowed.BarrierCount); frac < 0.9 {
		t.Errorf("rank 1 critical at %.0f%% of barriers, want >= 90%%", 100*frac)
	}
}

func TestRender(t *testing.T) {
	a := Analyze(syntheticTrace(), Options{})
	out := Render(a)
	for _, want := range []string{
		"2 barriers", "3 ranks",
		"100.0% attributed",
		"top straggler ranks",
		"rank 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestRenderOrdersTiedRanks: ranks that set the pace for equal time print
// in rank order, so the report is the same from one call to the next.
func TestRenderOrdersTiedRanks(t *testing.T) {
	a := &Analysis{BarrierCount: 4}
	for r := 0; r < 4; r++ {
		a.Ranks = append(a.Ranks, RankStat{Rank: r, PathS: 1, PathSegments: 1})
	}
	first := Render(a)
	if !strings.Contains(first, "rank 0 ") || strings.Index(first, "rank 0 ") > strings.Index(first, "rank 3 ") {
		t.Fatalf("tied ranks not in rank order:\n%s", first)
	}
	for i := 0; i < 50; i++ {
		if out := Render(a); out != first {
			t.Fatalf("render %d differs from the first:\n%s\nfirst:\n%s", i, out, first)
		}
	}
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
