package attrib_test

import (
	"testing"

	"sphenergy/internal/attrib"
	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

var attributionSink *attrib.Attribution

// BenchmarkAttribBuild joins one real observed run — 8 ranks, 300 steps,
// some 90 000 spans against 40 000 ticks a rank — through both feeds of the
// join, each against the sampler's rings in place: the tracer's records, as
// core.Run does it, and the span slice, where the cost of Tracer.Spans() is
// part of the price.
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
	b.Run("tracer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			attributionSink = attrib.BuildFromTracer(cfg.Tracer, res.Sampler.RankSeries(), opts)
		}
	})
	b.Run("slice", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			attributionSink = attrib.Build(cfg.Tracer.Spans(), res.Sampler.RankSeries(), opts)
		}
	})
	if !attributionSink.Pass {
		b.Fatal("the join's attribution does not pass")
	}
}
