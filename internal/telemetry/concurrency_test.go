package telemetry_test

import (
	"io"
	"strconv"
	"sync"
	"testing"

	"sphenergy/internal/instr"
	tele "sphenergy/internal/telemetry"
)

// TestConcurrentTelemetry hammers the telemetry hot path — span emission —
// together with instr.RankProfile.Record
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
	profile := instr.NewRankProfile(0)

	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Interning races with other ranks interning the same and
			// different identities, inside the loop as well as before it,
			// and with the exporters resolving them.
			kernelRef := tr.Intern("kernel", "rank-kernel-"+strconv.Itoa(r%3), "clock_mhz", "energy_j")
			gpu := tr.Intern("", "gpu", "power_w")
			for i := 0; i < perRankOps; i++ {
				ts := float64(i)
				fn := tr.Intern("function", "momentumEnergy", "clock_mhz", "gpu_j")
				tr.CompleteRef(r, fn, ts, 0.5, 1410, 12.5)
				cause := tr.InternWith("freq", "freq-change", "cause", "step-"+strconv.Itoa(i%7), "mhz")
				tr.InstantRef(r, cause, ts+0.1, 1005, 0)
				tr.CounterRef(r, gpu, ts+0.2, 250, 0)
				tr.CompleteRef(r, kernelRef, ts, 0.4, 1410, 9.5)
				tr.RecordSpan(r, "mpi", "barrier-wait", ts+0.6, 0.05)
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
				_ = profile.FunctionNames()
				_ = profile.TotalTimeS()
			}
		}()
	}
	wg.Wait()

	if got := tr.Len(); got != ranks*perRankOps*5 {
		t.Errorf("tracer recorded %d events, want %d", got, ranks*perRankOps*5)
	}
	st := profile.Get("momentumEnergy")
	if st == nil || st.Calls != ranks*perRankOps {
		t.Errorf("profile calls = %+v, want %d", st, ranks*perRankOps)
	}
}
