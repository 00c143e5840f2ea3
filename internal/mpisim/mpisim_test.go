package mpisim

import (
	"math"
	"testing"
)

func TestPointToPointCost(t *testing.T) {
	n := DefaultNetwork(4)
	small := n.PointToPointS(8, false)
	big := n.PointToPointS(8e9, false)
	if small <= n.LatencyS/2 {
		t.Error("latency floor missing")
	}
	if big <= small {
		t.Error("bandwidth term missing")
	}
	// Intra-node is faster.
	if n.PointToPointS(1e9, true) >= n.PointToPointS(1e9, false) {
		t.Error("intra-node transfer not faster")
	}
}

func TestAllreduceLogScaling(t *testing.T) {
	n := DefaultNetwork(4)
	if n.AllreduceS(8, 1) != 0 {
		t.Error("single-rank allreduce should be free")
	}
	t2 := n.AllreduceS(8, 2)
	t64 := n.AllreduceS(8, 64)
	if math.Abs(t64/t2-6) > 1e-9 {
		t.Errorf("log2 scaling: 64-rank/2-rank = %v, want 6", t64/t2)
	}
}

func TestAllgatherRingScaling(t *testing.T) {
	n := DefaultNetwork(4)
	t4 := n.AllgatherS(100, 4)
	t8 := n.AllgatherS(100, 8)
	if math.Abs(t8/t4-7.0/3.0) > 1e-9 {
		t.Errorf("ring scaling: %v, want %v", t8/t4, 7.0/3.0)
	}
}

func TestBroadcastLogScaling(t *testing.T) {
	n := DefaultNetwork(4)
	if n.BroadcastS(100, 1) != 0 {
		t.Error("single-rank broadcast should be free")
	}
	if n.BroadcastS(100, 64)/n.BroadcastS(100, 2) != 6 {
		t.Error("broadcast not log2-scaled")
	}
}

func TestReduceScatter(t *testing.T) {
	n := DefaultNetwork(4)
	if n.ReduceScatterS(100, 1) != 0 {
		t.Error("single-rank reduce-scatter should be free")
	}
	if n.ReduceScatterS(1e6, 8) <= n.ReduceScatterS(1e3, 8) {
		t.Error("reduce-scatter not increasing in volume")
	}
	// For the same total payload, reduce-scatter beats allgather+reduce
	// style full exchange: it is at most the allgather cost.
	if n.ReduceScatterS(1e6, 8) > n.AllgatherS(1e6, 8)+1e-12 {
		t.Error("reduce-scatter slower than allgather for the same block size")
	}
}

func TestHaloExchange(t *testing.T) {
	n := DefaultNetwork(4)
	if n.HaloExchangeS(1e6, 1) != 0 {
		t.Error("single rank needs no halo exchange")
	}
	if n.HaloExchangeS(1e8, 16) <= n.HaloExchangeS(1e6, 16) {
		t.Error("halo cost not increasing in volume")
	}
}

func TestWorldClocksAndBarrier(t *testing.T) {
	w := NewWorld(4, DefaultNetwork(4), 1)
	durs := []float64{1.0, 2.0, 0.5, 1.5}
	waits := w.Synchronize(durs)
	// All clocks align to the slowest rank (2.0).
	for r := 0; r < 4; r++ {
		if math.Abs(w.Clock(r)-2.0) > 1e-12 {
			t.Errorf("rank %d clock %v, want 2.0", r, w.Clock(r))
		}
	}
	if math.Abs(waits[1]) > 1e-12 {
		t.Error("slowest rank should not wait")
	}
	if math.Abs(waits[2]-1.5) > 1e-12 {
		t.Errorf("rank 2 wait %v, want 1.5", waits[2])
	}
	if w.MaxClock() != 2.0 {
		t.Errorf("MaxClock = %v", w.MaxClock())
	}
}

func TestAdvanceSingleRank(t *testing.T) {
	w := NewWorld(2, DefaultNetwork(2), 1)
	w.Advance(0, 3)
	if w.Clock(0) != 3 || w.Clock(1) != 0 {
		t.Error("Advance leaked between ranks")
	}
}

func TestExecuteRunsAllRanks(t *testing.T) {
	w := NewWorld(8, DefaultNetwork(4), 1)
	var order []int
	durs := w.Execute(func(rank int) float64 {
		order = append(order, rank)
		return float64(rank)
	})
	// Ranks step in rank order on the caller's goroutine (the unsynchronized
	// append is the check: `go test -race` would flag a second goroutine).
	if len(order) != 8 {
		t.Fatalf("executed %d ranks", len(order))
	}
	for r, d := range durs {
		if order[r] != r {
			t.Fatalf("ranks ran in order %v", order)
		}
		if d != float64(r) {
			t.Errorf("rank %d duration %v", r, d)
		}
	}
}

// A panic on any rank unwinds through Execute to the caller, where a
// supervisor can recover it.
func TestExecutePanicReachesCaller(t *testing.T) {
	w := NewWorld(4, DefaultNetwork(4), 1)
	defer func() {
		if r := recover(); r != "rank 2" {
			t.Fatalf("recovered %v, want the rank's panic", r)
		}
	}()
	w.Execute(func(rank int) float64 {
		if rank == 2 {
			panic("rank 2")
		}
		return 1
	})
	t.Fatal("Execute returned past a panicking rank")
}

// Execute and Synchronize return World-owned slices: distinct from each
// other, overwritten by the next call of the same method, never allocated
// per phase.
func TestPhaseSlicesAreWorldOwned(t *testing.T) {
	w := NewWorld(3, DefaultNetwork(3), 1)
	durs := w.Execute(func(r int) float64 { return float64(r + 1) })
	waits := w.Synchronize(durs)
	if waits[0] != 2 || waits[1] != 1 || waits[2] != 0 {
		t.Fatalf("waits = %v", waits)
	}
	// A second Execute (core.Run's idle phase) reuses durs, not waits.
	again := w.Execute(func(r int) float64 { return 0 })
	if &again[0] != &durs[0] {
		t.Error("Execute allocated a new slice")
	}
	if waits[0] != 2 || waits[1] != 1 {
		t.Errorf("Execute clobbered the waits: %v", waits)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		w.Synchronize(w.Execute(func(r int) float64 { return 1e-3 }))
	}); allocs != 0 {
		t.Errorf("%v allocations per phase, want 0", allocs)
	}
}

func TestJitterBoundsAndDeterminism(t *testing.T) {
	w1 := NewWorld(4, DefaultNetwork(4), 7)
	w2 := NewWorld(4, DefaultNetwork(4), 7)
	for i := 0; i < 100; i++ {
		for r := 0; r < 4; r++ {
			j1 := w1.Jitter(r, 0.02)
			j2 := w2.Jitter(r, 0.02)
			if j1 != j2 {
				t.Fatal("jitter not deterministic for equal seeds")
			}
			if j1 < 0.98 || j1 > 1.02 {
				t.Fatalf("jitter %v outside ±2%%", j1)
			}
		}
	}
}

func TestJitterDiffersAcrossRanks(t *testing.T) {
	w := NewWorld(2, DefaultNetwork(2), 3)
	same := 0
	for i := 0; i < 50; i++ {
		if w.Jitter(0, 0.05) == w.Jitter(1, 0.05) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("rank jitter streams identical in %d/50 draws", same)
	}
}

func TestSameNode(t *testing.T) {
	w := NewWorld(16, DefaultNetwork(8), 1)
	if !w.SameNode(0, 7) {
		t.Error("ranks 0 and 7 share node 0 with 8 ranks/node")
	}
	if w.SameNode(7, 8) {
		t.Error("ranks 7 and 8 are on different nodes")
	}
}

func TestSynchronizeAccumulates(t *testing.T) {
	w := NewWorld(2, DefaultNetwork(2), 1)
	w.Synchronize([]float64{1, 2})
	w.Synchronize([]float64{3, 1})
	// After two phases: max(1,2)=2, then 2+max(3,1)... clocks advance
	// individually then align: rank0 2+3=5, rank1 2+1=3 -> aligned to 5.
	if w.MaxClock() != 5 {
		t.Errorf("MaxClock = %v, want 5", w.MaxClock())
	}
}
