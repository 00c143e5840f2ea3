package sph

import (
	"math"
	"slices"
	"testing"

	"sphenergy/internal/neighbors"
	"sphenergy/internal/rng"
	"sphenergy/internal/sfc"
)

// skinLatticeState is latticeState with the reorder cadence off, so the
// tests below control exactly when rebuilds may happen.
func skinLatticeState(n int, t testing.TB) *State {
	t.Helper()
	st := latticeState(n, t)
	st.Opt.ReorderEvery = 0
	return st
}

// TestSkinBoundaryExactCrossing pins the drift trigger at its exact float
// boundary: a single particle displaced just inside the analytic slack must
// leave the cached candidates valid, and a displacement just beyond it must
// force a drift rebuild. The slack comes from skinSlack, the one statement
// of the criterion skinValid and the refresh's growth check evaluate, so
// the test tracks the criterion rather than a copy of its constants.
func TestSkinBoundaryExactCrossing(t *testing.T) {
	st := skinLatticeState(6, t)
	st.FindNeighbors()
	if got := st.NbrStats; got.Rebuilds != 1 || got.RebuildInit != 1 {
		t.Fatalf("after initial build NbrStats = %+v", got)
	}
	p := st.P

	// With every particle still on its reference position the drifts are
	// zero; moving the particle k of least slack by δ takes δ off its slack
	// and makes δ the global max drift, so the cache stays valid exactly
	// while slack_k − δ >= δ.
	base, k := 0.0, -1
	for i := 0; i < p.N; i++ {
		if sl, d := st.skinSlack(i, p.H[i], p.MaxH()); d != 0 {
			t.Fatalf("particle %d drifted %g from a reference just taken", i, d)
		} else if k < 0 || sl < base {
			base, k = sl, i
		}
	}
	if base <= 0 {
		t.Fatalf("lattice has no skin slack (least %g); test setup is broken", base)
	}
	threshold := base / 2

	origX := p.X[k]
	p.X[k] = origX + threshold*(1-1e-9)
	if _, ok := st.skinValid(p.MaxH()); !ok {
		t.Errorf("displacement just under the threshold (%.17g) invalidated the cache", threshold)
	}
	if kind, _ := st.rebuildCause(p.MaxH()); kind != "" {
		t.Errorf("rebuildCause %q while the cache is still valid", kind)
	}
	p.X[k] = origX + threshold*(1+1e-9)
	if _, ok := st.skinValid(p.MaxH()); ok {
		t.Errorf("displacement just over the threshold (%.17g) left the cache valid", threshold)
	}
	if kind, _ := st.rebuildCause(p.MaxH()); kind != "drift" {
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
	if _, abort := st.buildList(maxH, 0, false); abort != "overflow" {
		t.Fatalf("refresh under an ngmax overflow ended %q, want an overflow abort", abort)
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

// BenchmarkFindNeighbors times the two kinds of production FindNeighbors
// step at the engine benchmark's size, a jittered 30³ lattice at 64 neighbors, and
// reports what a step of each kind does per particle, exactly: the distance
// tests and contiguous runs of the candidate gather and the candidates it
// stores (none of the three on a refresh), then the candidates and shells
// streamed, the survivors compacted and the records written, and how many of
// the steps streamed twice because an h outgrew hGrowthAllow. Rebuilds are
// forced through the cadence with the step counter, not with RebuildEvery: 1,
// which gathers without a skin; refreshes by leaving the particles where the
// build found them, so they stream the fewest shells a refresh can. The
// counts repeat from run to run; compare the times by their minimum over
// -count (`make bench-sph`).
func BenchmarkFindNeighbors(b *testing.B) {
	for _, kind := range []string{"rebuild", "refresh"} {
		b.Run(kind, func(b *testing.B) {
			st := skinLatticeState(30, b)
			st.Opt.NgTarget = 64
			r := rng.New(42)
			for i := range st.P.H {
				// initcond.Turbulence's start: 64 neighbors, and a fifth of
				// the spacing in jitter, without which the lattice's shells
				// keep h hopping between two values.
				st.P.H[i] *= math.Cbrt(2)
				st.P.X[i] += 0.2 / 30 * (r.Float64() - 0.5)
				st.P.Y[i] += 0.2 / 30 * (r.Float64() - 0.5)
				st.P.Z[i] += 0.2 / 30 * (r.Float64() - 0.5)
			}
			st.Opt.RebuildEvery = 2
			step := func() {
				st.Step += st.Opt.RebuildEvery
				st.FindNeighbors()
			}
			for i := 0; i < 6; i++ {
				step() // settle the smoothing lengths, size the buffers
			}
			if kind == "refresh" {
				st.Opt.RebuildEvery = 0
				step()
			}
			stats, before := st.NbrStats, st.work
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			if kind == "rebuild" {
				stats.Rebuilds, stats.RebuildCadence = stats.Rebuilds+b.N, stats.RebuildCadence+b.N
			} else {
				stats.Refreshes += b.N
			}
			if st.NbrStats != stats {
				b.Fatalf("not %d %s steps: NbrStats %+v, want %+v", b.N, kind, st.NbrStats, stats)
			}
			per, w := float64(b.N*st.P.N), st.work
			b.ReportMetric(float64(w.gatherTests-before.gatherTests)/per, "tests/particle")
			b.ReportMetric(float64(w.gatherRuns-before.gatherRuns)/per, "runs/particle")
			b.ReportMetric(float64(w.stored-before.stored)/per, "stored/particle")
			b.ReportMetric(float64(w.streamed-before.streamed)/per, "streamed/particle")
			b.ReportMetric(float64(w.shells-before.shells)/per, "shells/particle")
			b.ReportMetric(float64(w.survivors-before.survivors)/per, "survivors/particle")
			b.ReportMetric(float64(w.records-before.records)/per, "records/particle")
			b.ReportMetric(float64(w.repeats-before.repeats), "repeats")
		})
	}
}

// candidateShell returns the shell the half list stores the pair {a, b} in,
// with whichever endpoint, or -1 if it does not.
func (nl *NeighborList) candidateShell(a, b int32) int {
	for _, e := range [][2]int32{{a, b}, {b, a}} {
		for sh := 0; sh < candShells; sh++ {
			o := int(e[0])*candShells + sh
			if slices.Contains(nl.CandIdx[nl.ShellOff[o]:nl.ShellOff[o+1]], e[1]) {
				return sh
			}
		}
	}
	return -1
}

// TestSkinGrowthAbort takes the refresh's second phase: smoothing lengths
// cut so the update grows them by the full 30 %, one particle drifted so
// far that the arriving supports are still covered — the pre-check passes —
// but its grown one is not. The step must end as a drift rebuild, not an
// overflow one and not a refresh, from restored state: H and NC equal, bit
// for bit, a Skin = 0 twin's, which rebuilt without trying.
func TestSkinGrowthAbort(t *testing.T) {
	const drifter = 7
	run := func(skin float64) *State {
		st := skinLatticeState(12, t)
		st.Opt.Skin = skin
		st.FindNeighbors()
		ref := st.List.RefH
		for i := range st.P.H {
			st.P.H[i] = 0.5 * ref[i]
		}
		// Slack 2.38 ref arriving, 2.08 ref grown: 1.1 ref of drift (and as
		// much again as the maximum) fits the first and not the second.
		st.P.X[drifter] += 1.1 * ref[drifter]
		return st
	}
	st := run(DefaultOptions(sfc.NewPeriodicCube(0, 1)).Skin)
	if kind, _ := st.rebuildCause(st.P.MaxH()); kind != "" {
		t.Fatalf("pre-check calls for a %q rebuild; the setup must pass it", kind)
	}
	before := st.P.H[drifter]
	var kinds []string
	st.Opt.NeighborEvent = func(_ int, kind string) { kinds = append(kinds, kind) }
	st.FindNeighbors()
	if got := st.NbrStats; got.Rebuilds != 2 || got.RebuildDrift != 1 || got.RebuildOverflow != 0 || got.Refreshes != 0 {
		t.Errorf("NbrStats %+v: want the init build and one drift rebuild, no refresh", got)
	}
	if len(kinds) != 1 || kinds[0] != "drift" {
		t.Errorf("NeighborEvent fired %v, want one \"drift\"", kinds)
	}
	twin := run(0)
	twin.FindNeighbors()
	if got := st.P.H[drifter]; got != hGrowthCap*before {
		t.Fatalf("the drifter's h grew %g -> %g, not by the cap: the setup is off", before, got)
	}
	for i := range st.P.H {
		if st.P.H[i] != twin.P.H[i] || st.P.NC[i] != twin.P.NC[i] {
			t.Fatalf("particle %d: H %.17g NC %d after the abort, %.17g and %d without a skin", i, st.P.H[i], st.P.NC[i], twin.P.H[i], twin.P.NC[i])
		}
	}
}

// TestSkinNeverMissesAPair aims at the drift budget from both sides of its
// edge. Two particles are built a hair beyond each other's candidate radius,
// or a hair within it — then the half list stores the pair in the last shell
// of its owner — and brought as close as the criterion allows, both moving,
// or one moving at a partner whose support is wide, on a step whose update
// grows every h by the full 30 %. From beyond, the approach is the largest
// the pre-check passes, the pair lands inside a support its candidates never
// saw, and only the drift rebuild the grown support calls for can find it.
// From within, the approach is the largest the grown supports pass too: the
// step is a refresh (one that outgrows hGrowthAllow and streams twice), the
// pair ends a few parts in 10⁹ inside a support, and a shell cut that stopped
// one shell early would lose it. Whatever FindNeighbors does, the list must
// be the closure walk's.
func TestSkinNeverMissesAPair(t *testing.T) {
	for _, tc := range []struct {
		name             string
		bothMove, within bool
	}{
		{"both approach", true, false}, {"one approaches a wide support", false, false},
		{"both approach from the last shell", true, true}, {"one approaches a wide support from the last shell", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := skinLatticeState(12, t)
			p := st.P
			const a, b = 700, 20
			sk := 1 + st.Opt.Skin
			start := 1 + 1e-9
			if tc.within {
				start = 1 - 1e-9
			}
			p.X[b], p.Y[b], p.Z[b] = st.Opt.Box.Wrap(p.X[a]+candRadius(sk, p.H[a])*start, p.Y[a], p.Z[a])
			st.FindNeighbors()
			nl := st.List
			if at := nl.candidateShell(a, b); tc.within != (at == candShells-1) {
				t.Fatalf("the pair is in shell %d of the candidates (-1: not stored); it was to start %v", at, map[bool]string{true: "in the last", false: "outside"}[tc.within])
			}
			// Supports cut in half leave room to move; a keeps the width it
			// was built with when it is the one to grow into the pair. A
			// target no count reaches makes every h grow by the cap.
			for i := range p.H {
				if tc.bothMove || i != a {
					p.H[i] = 0.5 * nl.RefH[i]
				} else {
					p.H[i] = nl.RefH[i]
				}
			}
			st.Opt.NgTarget = 1 << 20
			// The largest approach that passes: a mover's drift is also the
			// maximum, so it may use half its own slack and all of anyone
			// else's — the slack of the supports they arrive with for the
			// pre-check alone, of the grown ones for the whole step.
			maxH := p.MaxH()
			slack := func(i int) float64 {
				h := p.H[i]
				if tc.within {
					h *= hGrowthCap
				}
				s, _ := st.skinSlack(i, h, maxH)
				return s
			}
			move := slack(b) / 2
			if tc.bothMove {
				move = min(move, slack(a)/2)
			} else {
				move = min(move, slack(a))
			}
			move *= 1 - 1e-9
			p.X[b], _, _ = st.Opt.Box.Wrap(p.X[b]-move, p.Y[b], p.Z[b])
			if tc.bothMove {
				p.X[a], _, _ = st.Opt.Box.Wrap(p.X[a]+move, p.Y[a], p.Z[a])
			}
			if kind, _ := st.rebuildCause(maxH); kind != "" {
				t.Fatalf("pre-check calls for a %q rebuild; the approach was to stay within it", kind)
			}
			walk := WalkTwin(st)
			st.FindNeighbors()
			RequireRowsOfWalk(t, st, walk)
			if dx := neighbors.MinImage(p.X[a]-p.X[b], 1, true); !(dx*dx < support2(p.H[a])) {
				t.Errorf("b ended %g from a, support %g: the pair never formed and the test proves nothing", dx, 2*p.H[a])
			}
			got := st.NbrStats
			if !tc.within && (got.RebuildDrift != 1 || got.Refreshes != 0) {
				t.Errorf("NbrStats %+v: the grown support outran the skin, yet no drift rebuild", got)
			}
			if tc.within && (got.Refreshes != 1 || got.Rebuilds != 1 || st.work.repeats != 1) {
				t.Errorf("NbrStats %+v, %d repeats: the approach was to leave the step a refresh, streamed twice", got, st.work.repeats)
			}
		})
	}
}

// TestGrowthPastAllowanceRepeats: on a settled, jittered lattice no h grows
// by more than hGrowthAllow and no step streams twice; then one particle's h
// is cut by a fifth, its count falls, the update grows it by a tenth, and the
// step — a refresh or a cadence rebuild — must stream again providing for
// hGrowthCap, and end with the list of a sweep that provided for the cap, and
// streamed every shell, from the start.
func TestGrowthPastAllowanceRepeats(t *testing.T) {
	for _, rebuild := range []bool{false, true} {
		st := skinLatticeState(12, t)
		r := rng.New(7)
		for i := range st.P.X {
			st.P.X[i] += 0.2 / 12 * (r.Float64() - 0.5)
			st.P.Y[i] += 0.2 / 12 * (r.Float64() - 0.5)
			st.P.Z[i] += 0.2 / 12 * (r.Float64() - 0.5)
		}
		for i := 0; i < 8; i++ {
			st.FindNeighbors()
		}
		settled := st.work.repeats
		st.FindNeighbors()
		if st.work.repeats != settled {
			t.Fatalf("the settled lattice still streams twice (%d repeats so far)", st.work.repeats)
		}
		const shrunk = 333
		st.P.H[shrunk] *= 0.8
		if rebuild {
			st.Opt.RebuildEvery = 2
			st.Step += 2
		}
		before, stats := st.P.H[shrunk], st.NbrStats
		ref := Twin(st)
		st.FindNeighbors()
		if got := st.NbrStats; got.Refreshes-stats.Refreshes == 1 == rebuild || got.RebuildCadence-stats.RebuildCadence == 1 != rebuild {
			t.Fatalf("rebuild %v: NbrStats went %+v -> %+v", rebuild, stats, got)
		}
		if g := st.P.H[shrunk] / before; !(g > hGrowthAllow) || st.work.repeats != settled+1 {
			t.Errorf("rebuild %v: h grew by %g and %d steps streamed twice; want more than %g and one", rebuild, g, st.work.repeats-settled, hGrowthAllow)
		}
		ref.SweepAllShells(rebuild)
		if d := ListDiff(st, ref); d != "" {
			t.Errorf("rebuild %v: the repeated pass against a sweep at the cap from the start: %s", rebuild, d)
		}
	}
}
