package attrib_test

import (
	"testing"
	"time"

	"sphenergy/internal/attrib"
	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/pmt"
	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

var attributionSink *attrib.Attribution

// replaySensor reads a recorded series back, one tick a read.
type replaySensor struct {
	s    sampler.Series
	next int
}

func (r *replaySensor) Name() string { return "replay" }

func (r *replaySensor) Read() pmt.State {
	i := min(r.next, r.s.Len()-1)
	r.next++
	return pmt.State{TimeS: r.s.TimeS(i), EnergyJ: *r.s.Energies.At(i)}
}

// BenchmarkAttribBuild times the join of one recorded observed run — 8
// ranks, 300 steps, some 90 000 spans against 40 000 ticks a rank. The
// online sub-benchmark replays the run step by step as core.Run joins it:
// a step's rank-track spans into a fresh tracer and its ticks into the
// rank channels, then the join's Advance at the step boundary, and Finish
// at the end. Only Advance and Finish are timed (ms/join, ns/record); ns/op
// and B/op include the replay. The slice sub-benchmark is Build over
// Tracer.Spans() and the run's whole series, the post-run join a caller
// with a span slice makes, the cost of Spans() included.
func BenchmarkAttribBuild(b *testing.B) {
	cfg := core.Config{
		System:           cluster.CSCSA100(),
		Ranks:            8,
		Sim:              core.Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            300,
		Seed:             42,
		Tracer:           telemetry.NewTracer(8),
		Sampling:         sampler.Config{GPUHz: 100, NodeHz: 10},
	}
	res, err := core.Run(cfg)
	if err != nil {
		b.Fatal(err)
	}
	opts := res.Attribution.Opts
	// The same run without a tracer joins nothing, so its channels keep
	// every tick: the series the traced run's channels emitted.
	untraced := cfg
	untraced.Tracer = nil
	whole, err := core.Run(untraced)
	if err != nil {
		b.Fatal(err)
	}
	series := whole.Sampler.RankSeries()
	for _, st := range whole.Sampler.Stats() {
		if st.Dropped != 0 {
			b.Fatalf("the untraced run's rank %d dropped %d ticks", st.Rank, st.Dropped)
		}
	}
	// The rank tracks' complete spans, in recording order.
	tracks := make([][]telemetry.SpanEvent, cfg.Ranks)
	records := 0
	for _, sp := range cfg.Tracer.Spans() {
		if sp.Track >= 0 && !sp.Instant {
			tracks[sp.Track] = append(tracks[sp.Track], sp)
			records++
		}
	}

	b.Run("online", func(b *testing.B) {
		b.ReportAllocs()
		var joined time.Duration
		for i := 0; i < b.N; i++ {
			smp := sampler.New(cfg.Sampling)
			ticks := make([]int, cfg.Ranks)
			for r := range cfg.Ranks {
				smp.AddRank(r, &replaySensor{s: series[r]})
			}
			smp.PollAll()
			tr := telemetry.NewTracer(cfg.Ranks)
			cursors := make([]int, cfg.Ranks)
			o := attrib.NewOnline(tr, smp, opts)
			replay := func(boundS float64) {
				for r, ch := range smp.Channels() {
					for track := tracks[r]; cursors[r] < len(track) && track[cursors[r]].StartS < boundS; cursors[r]++ {
						sp := &track[cursors[r]]
						var keys [2]string
						var vals [2]float64
						n := 0
						for _, a := range sp.Args[:min(2, len(sp.Args))] {
							keys[n], vals[n] = a.Key, a.Float64()
							n++
						}
						tr.CompleteRef(r, tr.Intern(sp.Category, sp.Name, keys[:n]...), sp.StartS, sp.DurS, vals[0], vals[1])
					}
					s := series[r]
					for ; ticks[r] < s.Len()-1 && s.TimeS(ticks[r]+1) <= boundS; ticks[r]++ {
						ch.Poll()
					}
				}
			}
			for _, boundS := range res.StepBoundariesS {
				replay(boundS)
				t0 := time.Now()
				o.Advance(boundS)
				joined += time.Since(t0)
			}
			replay(res.StepBoundariesS[len(res.StepBoundariesS)-1] + 1)
			t0 := time.Now()
			attributionSink = o.Finish()
			joined += time.Since(t0)
		}
		b.ReportMetric(joined.Seconds()*1e3/float64(b.N), "ms/join")
		b.ReportMetric(float64(joined.Nanoseconds())/float64(b.N)/float64(records), "ns/record")
		if !attributionSink.Pass {
			b.Fatal("the replayed join's attribution does not pass")
		}
	})
	b.Run("slice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			attributionSink = attrib.Build(cfg.Tracer.Spans(), series, opts)
		}
		if !attributionSink.Pass {
			b.Fatal("the join's attribution does not pass")
		}
	})
}
