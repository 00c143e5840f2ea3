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
	if len(a.Barriers) != 2 {
		t.Fatalf("barriers = %d, want 2", len(a.Barriers))
	}
	for i, b := range a.Barriers {
		if len(b.Critical) != 1 || b.Critical[0] != 2 {
			t.Errorf("barrier %d critical = %v, want [2]", i, b.Critical)
		}
		if want := []int{0, 1}; len(b.Waiters) != 2 || b.Waiters[0] != want[0] || b.Waiters[1] != want[1] {
			t.Errorf("barrier %d waiters = %v, want %v", i, b.Waiters, want)
		}
		if math.Abs(b.WaitS-1.8) > 1e-9 {
			t.Errorf("barrier %d wait = %g, want 1.8", i, b.WaitS)
		}
		if math.Abs(b.MaxWaitS-1.0) > 1e-9 {
			t.Errorf("barrier %d max wait = %g, want 1.0", i, b.MaxWaitS)
		}
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
	for _, seg := range a.CriticalPath {
		if seg.Rank != 2 {
			t.Errorf("critical path segment %+v not on rank 2", seg)
		}
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
	if len(a.Barriers) != 2 || a.CausedWaitS(2) < 3.6-1e-6 {
		t.Fatalf("round-tripped analysis degraded: %d barriers, caused=%g",
			len(a.Barriers), a.CausedWaitS(2))
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
	if len(a.Barriers) != 1 {
		t.Fatalf("barriers = %d, want 1", len(a.Barriers))
	}
	if len(a.Barriers[0].Critical) != 1 || a.Barriers[0].Critical[0] != 1 {
		t.Errorf("critical = %v, want [1]", a.Barriers[0].Critical)
	}
}

func TestAnalyzeEmptyAndWaitOnly(t *testing.T) {
	a := Analyze(nil, Options{})
	if a.TotalWaitS != 0 || len(a.Barriers) != 0 {
		t.Errorf("empty analysis = %+v", a)
	}
	// Wait spans without any work spans: the barrier is reconstructed but
	// no critical rank can be identified; attribution stays at 0.
	a = Analyze([]Span{
		{Rank: 0, Cat: "mpi", Name: "barrier-wait", StartS: 0, DurS: 1},
	}, Options{})
	if len(a.Barriers) != 1 || len(a.Barriers[0].Critical) != 0 {
		t.Fatalf("wait-only barriers = %+v", a.Barriers)
	}
	if a.AttributedWaitS != 0 || a.TotalWaitS != 1 {
		t.Errorf("attribution = %g/%g, want 0/1", a.AttributedWaitS, a.TotalWaitS)
	}
}

// tracerWaits records a world's barrier waits as the runner does: "mpi"
// "barrier-wait" spans on the rank tracks.
type tracerWaits struct{ tr *telemetry.Tracer }

func (w tracerWaits) BarrierWait(rank int, startS, durS float64) {
	w.tr.RecordSpan(rank, "mpi", "barrier-wait", startS, durS)
}

// TestMpisimStragglerAttribution validates the engine against a real mpisim
// run: rank 1 is slowed 4× through the world's fault hook, and the analysis
// must attribute at least 90% of the added barrier wait (vs. the healthy
// run) to that rank.
func TestMpisimStragglerAttribution(t *testing.T) {
	run := func(slow bool) *Analysis {
		const ranks, phases = 4, 20
		net := mpisim.DefaultNetwork(ranks)
		w := mpisim.NewWorld(ranks, net, 7)
		tr := telemetry.NewTracer(ranks)
		w.SetRecorder(tracerWaits{tr})
		if slow {
			w.SetRankFaults(func(rank int, nowS float64) mpisim.RankFault {
				if rank == 1 {
					return mpisim.RankFault{SlowFactor: 4}
				}
				return mpisim.RankFault{}
			})
		}
		for p := 0; p < phases; p++ {
			starts := make([]float64, ranks)
			durs := w.Execute(func(r int) float64 {
				starts[r] = w.Clock(r)
				return 0.1 * w.Jitter(r, 0.05)
			})
			// Record each rank's work span the way the runner's kernel
			// observer does: start at the rank's clock, own duration.
			for r, d := range durs {
				tr.RecordSpan(r, "kernel", "work", starts[r], d)
			}
			w.Synchronize(durs)
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
	// Every barrier in the slowed run should be critical on rank 1.
	crit := 0
	for _, b := range slowed.Barriers {
		if len(b.Critical) == 1 && b.Critical[0] == 1 {
			crit++
		}
	}
	if frac := float64(crit) / float64(len(slowed.Barriers)); frac < 0.9 {
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
	a := &Analysis{}
	for r := 0; r < 4; r++ {
		a.CriticalPath = append(a.CriticalPath, Segment{StartS: float64(r), EndS: float64(r + 1), Rank: 3 - r})
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
