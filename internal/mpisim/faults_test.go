package mpisim

import "testing"

// TestCrashKillsRankAndFreezesClock: a rank its phase kills with Fail
// banks the phase's duration, then never executes again, never waits at a
// barrier and keeps its clock.
func TestCrashKillsRankAndFreezesClock(t *testing.T) {
	w := NewWorld(3, DefaultNetwork(3), 1)
	durs := w.Execute(func(r int) float64 {
		if r == 1 {
			w.Fail(r, w.Clock(r)+2.0)
		}
		return 2.0
	})
	w.Synchronize(durs)
	if w.AliveCount() != 2 {
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
	durs := w.Execute(func(r int) float64 {
		if r == 1 {
			w.Fail(r, w.Clock(r)+10.0)
			return 10.0
		}
		return 1.0
	})
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
