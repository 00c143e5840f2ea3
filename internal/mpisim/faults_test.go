package mpisim

import "testing"

func TestStragglerStretchesPhaseAndNotifies(t *testing.T) {
	w := NewWorld(4, DefaultNetwork(4), 1)
	extras := map[int]float64{}
	w.SetStragglerObserver(func(r int, extraS float64) { extras[r] += extraS })
	w.SetRankFaultHook(func(r int, nowS float64) RankFault {
		if r == 2 {
			return RankFault{SlowFactor: 3}
		}
		return RankFault{}
	})
	durs := w.Execute(func(r int) float64 { return 1.0 })
	for r, d := range durs {
		want := 1.0
		if r == 2 {
			want = 3.0
		}
		if d != want {
			t.Fatalf("rank %d dur = %g, want %g", r, d, want)
		}
	}
	if extras[2] != 2.0 || len(extras) != 1 {
		t.Fatalf("observer extras = %v, want rank 2 → 2.0 only", extras)
	}
	waits := w.Synchronize(durs)
	// The straggler pulls the barrier: everyone else waits 2 s.
	for r, wt := range waits {
		want := 2.0
		if r == 2 {
			want = 0.0
		}
		if wt != want {
			t.Fatalf("rank %d wait = %g, want %g", r, wt, want)
		}
	}
}

func TestCrashKillsRankAndFreezesClock(t *testing.T) {
	w := NewWorld(3, DefaultNetwork(3), 1)
	phase := 0
	w.SetRankFaultHook(func(r int, nowS float64) RankFault {
		return RankFault{Crash: r == 1 && phase == 0}
	})
	durs := w.Execute(func(r int) float64 { return 2.0 })
	w.Synchronize(durs)
	if w.Alive(1) || w.AliveCount() != 2 {
		t.Fatalf("rank 1 should be dead (alive=%d)", w.AliveCount())
	}
	fails := w.Failures()
	if len(fails) != 1 || fails[0].Rank != 1 || fails[0].TimeS != 2.0 {
		t.Fatalf("failures = %+v", fails)
	}
	// The dying rank's work still counted toward this phase's barrier.
	if c := w.Clock(0); c != 2.0 {
		t.Fatalf("survivor clock = %g, want 2", c)
	}

	phase = 1
	ran := make([]bool, 3)
	durs = w.Execute(func(r int) float64 {
		ran[r] = true
		return 1.0
	})
	if ran[1] {
		t.Fatal("dead rank executed a phase")
	}
	if durs[1] != 0 {
		t.Fatalf("dead rank dur = %g, want 0", durs[1])
	}
	// The waits slice is reused across calls: a rank that waited last phase
	// and is dead now must read 0, not its stale wait.
	if waits := w.Synchronize(durs); waits[1] != 0 {
		t.Fatalf("dead rank wait = %g, want 0", waits[1])
	}
	w.Advance(1, 5)
	if c := w.Clock(1); c != 2.0 {
		t.Fatalf("dead rank clock = %g, want frozen at 2", c)
	}
	if c := w.Clock(0); c != 3.0 {
		t.Fatalf("survivor clock = %g, want 3", c)
	}
}

func TestCrashAtBarrierDoesNotPullSurvivors(t *testing.T) {
	// A rank that dies while reporting a long duration still banks its
	// time, but survivors do not wait for it.
	w := NewWorld(2, DefaultNetwork(2), 1)
	w.SetRankFaultHook(func(r int, nowS float64) RankFault {
		if r == 1 {
			return RankFault{SlowFactor: 10, Crash: true}
		}
		return RankFault{}
	})
	durs := w.Execute(func(r int) float64 { return 1.0 })
	waits := w.Synchronize(durs)
	if waits[0] != 0 {
		t.Fatalf("survivor waited %g s for a dead rank", waits[0])
	}
	if c := w.Clock(0); c != 1.0 {
		t.Fatalf("survivor clock = %g, want 1", c)
	}
	if c := w.Clock(1); c != 10.0 {
		t.Fatalf("dead rank clock = %g, want 10 (banked then frozen)", c)
	}
}
