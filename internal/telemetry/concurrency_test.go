package telemetry_test

import (
	"io"
	"strconv"
	"sync"
	"testing"

	"sphenergy/internal/instr"
	tele "sphenergy/internal/telemetry"
)

// TestConcurrentTelemetry hammers the telemetry hot paths — span emission,
// counter/gauge/histogram updates — together with instr.RankProfile.Record
// from many goroutines while readers export concurrently. Run under
// `go test -race` (the `make check` target does) this proves the
// measurement substrate itself is data-race free, the precondition for
// instrumenting the multi-rank runner.
func TestConcurrentTelemetry(t *testing.T) {
	const (
		ranks      = 8
		perRankOps = 200
	)
	tr := tele.NewTracer(ranks)
	reg := tele.NewRegistry()
	profile := instr.NewRankProfile(0)

	launches := reg.Counter("kernel_launches_total", "launches")
	hist := reg.Histogram("step_energy_j", "energy", tele.ExpBuckets(1, 10, 6))

	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			clock := reg.Gauge("gpu_clock_mhz", "clock", tele.L("rank", strconv.Itoa(r)))
			// Interning races with other ranks interning the same and
			// different identities; recording through the ref races with
			// the generic path on the same shard.
			kernelRef := tr.Intern("kernel", "rank-kernel-"+strconv.Itoa(r%3), "clock_mhz", "energy_j")
			for i := 0; i < perRankOps; i++ {
				ts := float64(i)
				tr.Complete(r, "function", "momentumEnergy", ts, 0.5,
					tele.Int("clock_mhz", 1410), tele.Float("gpu_j", 12.5))
				tr.Instant(r, "freq", "freq-change", ts+0.1, tele.Int("mhz", 1005))
				tr.Counter(r, "gpu", ts+0.2, tele.Float("power_w", 250))
				tr.CompleteRef(r, kernelRef, ts, 0.4, 1410, 9.5)
				tr.RecordSpan(r, "mpi", "barrier-wait", ts+0.6, 0.05)
				launches.Inc()
				clock.Set(float64(1005 + i%405))
				hist.Observe(float64(i))
				profile.RecordAt(0, "momentumEnergy", 0.01, 1, 0.1, 0.05, 0.02, 0.001)
			}
		}(r)
	}
	// Concurrent readers: exporters must tolerate in-flight writers.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				_ = tr.WriteJSON(io.Discard)
				_ = tr.Spans()
				_ = reg.Snapshot()
				_ = reg.WriteJSON(io.Discard)
				_ = profile.FunctionNames()
				_ = profile.TotalTimeS()
			}
		}()
	}
	wg.Wait()

	if got := tr.Len(); got != ranks*perRankOps*5 {
		t.Errorf("tracer recorded %d events, want %d", got, ranks*perRankOps*5)
	}
	if got := launches.Value(); got != ranks*perRankOps {
		t.Errorf("launch counter = %v, want %d", got, ranks*perRankOps)
	}
	if got := hist.Count(); got != ranks*perRankOps {
		t.Errorf("histogram count = %d, want %d", got, ranks*perRankOps)
	}
	st := profile.Get("momentumEnergy")
	if st == nil || st.Calls != ranks*perRankOps {
		t.Errorf("profile calls = %+v, want %d", st, ranks*perRankOps)
	}
}
