package telemetry

import "testing"

// The no-op path must be near-free: a nil tracer costs one nil
// check per call site, preserving the §III-B non-perturbation property for
// uninstrumented runs. BenchmarkTelemetryOverhead in internal/core measures
// the end-to-end run-level cost; these isolate the per-call primitives.

func BenchmarkSpanRecord(b *testing.B) {
	// Roll to a fresh tracer periodically so the benchmark measures
	// recording at a realistic trace size instead of growing one buffer
	// to b.N (millions of) events.
	const traceSize = 4096
	tr := NewTracer(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%traceSize == 0 {
			tr = NewTracer(1)
		}
		tr.RecordSpan(0, "function", "momentumEnergy", float64(i), 0.5)
	}
}

// BenchmarkSpanRecordInterned records spans back to back, each starting
// where the one before it ended, as a rank's kernels do, into a fresh
// tracer every traceSize events, and reports what a span holds in a trace
// of traceSize (B/event: its record and its share of the blocks' unused
// tails).
func BenchmarkSpanRecordInterned(b *testing.B) {
	const traceSize = 4096
	var tr *Tracer
	var ref SpanRef
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%traceSize == 0 {
			tr = NewTracer(1)
			ref = tr.Intern("function", "momentumEnergy", "clock_mhz", "energy_j")
		}
		tr.CompleteRef(0, ref, float64(i%traceSize)*0.5, 0.5, 1005, 3.5)
	}
	b.StopTimer()
	for i := tr.Len(); i < traceSize; i++ {
		tr.CompleteRef(0, ref, float64(i)*0.5, 0.5, 1005, 3.5)
	}
	b.ReportMetric(float64(HeldBytes(tr))/traceSize, "B/event")
}

func BenchmarkSpanRecordNilTracer(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.RecordSpan(0, "function", "momentumEnergy", float64(i), 0.5)
	}
}
