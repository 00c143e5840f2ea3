package sph

import "testing"

// skinLatticeState is latticeState with the reorder cadence off, so the
// tests below control exactly when rebuilds may happen.
func skinLatticeState(n int, t *testing.T) *State {
	t.Helper()
	st := latticeState(n, t)
	st.Opt.ReorderEvery = 0
	return st
}

// TestSkinBoundaryExactCrossing pins the drift trigger at its exact float
// boundary: a single particle displaced just inside the analytic slack must
// leave the cached candidates valid, and a displacement just beyond it must
// force a drift rebuild. The slack is recovered from the same arrays
// skinValid reads, so the test tracks the criterion rather than a copy of
// its constants.
func TestSkinBoundaryExactCrossing(t *testing.T) {
	st := skinLatticeState(6, t)
	st.FindNeighbors()
	if got := st.NbrStats; got.Rebuilds != 1 || got.RebuildInit != 1 {
		t.Fatalf("after initial build NbrStats = %+v", got)
	}
	nl := st.List
	p := st.P

	// With every particle still on its reference position, particle i's
	// excess is 2·hGrowthCap·(h_i − (1+Skin)·RefH_i); moving particle k by
	// δ adds δ to both its excess and the global max drift, so the cache
	// stays valid exactly while base_k + 2δ <= −tol.
	sk := 1 + st.Opt.Skin
	base, k := 0.0, -1
	for i := 0; i < p.N; i++ {
		if e := 2 * hGrowthCap * (p.H[i] - sk*nl.RefH[i]); k < 0 || e > base {
			base, k = e, i
		}
	}
	if base >= 0 {
		t.Fatalf("lattice has no skin slack (base excess %g); test setup is broken", base)
	}
	tol := 1e-12 * (2 * hGrowthCap * p.MaxH())
	threshold := (-tol - base) / 2

	origX := p.X[k]
	p.X[k] = origX + threshold*(1-1e-9)
	if !st.skinValid(p.MaxH()) {
		t.Errorf("displacement just under the threshold (%.17g) invalidated the cache", threshold)
	}
	if kind := st.rebuildCause(p.MaxH()); kind != "" {
		t.Errorf("rebuildCause %q while the cache is still valid", kind)
	}
	p.X[k] = origX + threshold*(1+1e-9)
	if st.skinValid(p.MaxH()) {
		t.Errorf("displacement just over the threshold (%.17g) left the cache valid", threshold)
	}
	if kind := st.rebuildCause(p.MaxH()); kind != "drift" {
		t.Errorf("rebuildCause %q although drift crossed the threshold", kind)
	}

	st.FindNeighbors()
	if got := st.NbrStats; got.RebuildDrift != 1 || got.Rebuilds != 2 || got.Refreshes != 0 {
		t.Errorf("over-threshold FindNeighbors did not drift-rebuild: %+v", got)
	}
}

// TestSkinOverflowForcesEarlyRebuild: when a refresh would overflow ngmax,
// the step must fall back to a full rebuild (the capped candidate segment
// cannot represent truncation honestly) and count it as an overflow rebuild.
func TestSkinOverflowForcesEarlyRebuild(t *testing.T) {
	st := skinLatticeState(6, t)
	st.Opt.NgMax = 16 // true neighbor counts sit near NgTarget=32

	st.FindNeighbors()
	if st.List.Overflow == 0 {
		t.Fatal("ngmax cap not exceeded; the overflow path is untested")
	}
	for i := 0; i < 3; i++ {
		st.FindNeighbors()
	}
	got := st.NbrStats
	if got.RebuildOverflow != 3 {
		t.Errorf("RebuildOverflow = %d, want 3 (every refresh overflows): %+v", got.RebuildOverflow, got)
	}
	if got.Refreshes != 0 {
		t.Errorf("Refreshes = %d, want 0: an overflowing refresh must not count as served", got.Refreshes)
	}
	ngmax := st.Opt.ngmax()
	for i := 0; i < st.P.N; i++ {
		if n := st.List.Count(i); n > ngmax {
			t.Fatalf("particle %d list length %d exceeds ngmax %d after overflow rebuild", i, n, ngmax)
		}
	}
	if err := st.P.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSkinRefreshAbortRestoresState: an aborted refresh must leave H and NC
// exactly as they were, so the rebuild that follows starts from the same
// pre-step state a rebuild-only run would see.
func TestSkinRefreshAbortRestoresState(t *testing.T) {
	st := skinLatticeState(5, t)
	st.Opt.NgMax = 16
	st.FindNeighbors()

	hBefore := append([]float64(nil), st.P.H...)
	ncBefore := append([]int32(nil), st.P.NC...)
	maxH := st.P.MaxH()
	if _, ok := st.buildList(maxH, false); ok {
		t.Fatal("refresh unexpectedly succeeded under an ngmax overflow")
	}
	for i := range hBefore {
		if st.P.H[i] != hBefore[i] {
			t.Fatalf("aborted refresh changed H[%d]: %g -> %g", i, hBefore[i], st.P.H[i])
		}
		if st.P.NC[i] != ncBefore[i] {
			t.Fatalf("aborted refresh changed NC[%d]: %d -> %d", i, ncBefore[i], st.P.NC[i])
		}
	}
}
