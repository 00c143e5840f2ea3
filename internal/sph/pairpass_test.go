package sph_test

// Equivalence and structure tests for the folded pair path: the pair list
// must cover every interaction of the per-particle (asymmetric) neighbor
// rows exactly once, the folded passes must match the closure walk — the
// asymmetric reference, where every particle gathers over its own
// neighbors — to 1e-9 over multi-step runs (skin on and off, with and
// without gravity), and checkpoint resume must stay bit-identical.

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"sort"
	"testing"

	"sphenergy/internal/gravity"
	"sphenergy/internal/initcond"
	"sphenergy/internal/sph"
)

// runSym advances a fresh state through the full pipeline for the given
// number of steps and returns it.
func runSym(t *testing.T, mk func() *sph.State, steps int, withGravity bool) *sph.State {
	t.Helper()
	st := mk()
	var pot []float64
	if withGravity {
		pot = make([]float64, st.P.N)
	}
	for s := 0; s < steps; s++ {
		stepManual(st, withGravity, pot)
	}
	return st
}

// compareStates asserts the physics fields of two pipeline variants agree
// within tol after identical trajectories.
func compareStates(t *testing.T, label string, a, b *sph.State, tol float64) {
	t.Helper()
	pa, pb := a.P, b.P
	for i := range pa.NC {
		if pa.NC[i] != pb.NC[i] {
			t.Fatalf("%s: particle %d neighbor count %d != %d", label, i, pa.NC[i], pb.NC[i])
		}
	}
	fields := []struct {
		name string
		x, y []float64
	}{
		{"rho", pa.Rho, pb.Rho},
		{"gradh", pa.Gradh, pb.Gradh},
		{"divv", pa.DivV, pb.DivV},
		{"curlv", pa.CurlV, pb.CurlV},
		{"u", pa.U, pb.U},
		{"h", pa.H, pb.H},
		{"ax", pa.AX, pb.AX},
		{"ay", pa.AY, pb.AY},
		{"az", pa.AZ, pb.AZ},
		{"x", pa.X, pb.X},
		{"vx", pa.VX, pb.VX},
	}
	for _, f := range fields {
		if dev := maxRelDev(f.x, f.y); dev > tol {
			t.Errorf("%s: %s deviates by %.3g (> %g)", label, f.name, dev, tol)
		}
	}
}

// TestSymmetricMatchesAsymmetricTurbulence compares the folded passes with
// the closure walk's asymmetric per-particle gather on periodic turbulence,
// with the Verlet skin both on and off: they must agree to 1e-9 over
// several steps (they differ by rounding alone).
func TestSymmetricMatchesAsymmetricTurbulence(t *testing.T) {
	for _, skin := range []struct {
		name string
		val  float64
	}{{"skin", -1}, {"noskin", 0}} {
		t.Run(skin.name, func(t *testing.T) {
			mk := func(walk bool) func() *sph.State {
				return func() *sph.State {
					p, opt := initcond.Turbulence(initcond.DefaultTurbulence(10))
					opt.NgTarget = 32
					opt.ReorderEvery = 0
					opt.ClosureWalk = walk
					if skin.val >= 0 {
						opt.Skin = skin.val
					}
					return sph.NewState(p, opt)
				}
			}
			const steps = 4
			sym := runSym(t, mk(false), steps, false)
			walk := runSym(t, mk(true), steps, false)
			if sym.List == nil || len(sym.List.PairOffsets) != sym.P.N+1 {
				t.Fatal("production run did not build the folded pair list")
			}
			compareStates(t, "sym-vs-walk", sym, walk, 1e-9)
		})
	}
}

// TestSymmetricMatchesAsymmetricEvrard is the same comparison on the
// non-periodic gravity-coupled Evrard collapse, whose smoothing-length
// contrasts produce one-way pairs (inside one endpoint's support only),
// which the momentum pass must still integrate from both sides.
func TestSymmetricMatchesAsymmetricEvrard(t *testing.T) {
	mk := func(walk bool) func() *sph.State {
		return func() *sph.State {
			p, opt := initcond.Evrard(initcond.DefaultEvrard(10))
			opt.NgTarget = 32
			opt.ReorderEvery = 0
			opt.ClosureWalk = walk
			return sph.NewState(p, opt)
		}
	}
	const steps = 3
	sym := runSym(t, mk(false), steps, true)
	walk := runSym(t, mk(true), steps, true)
	compareStates(t, "sym-vs-walk", sym, walk, 1e-9)
}

// nbrRow is one entry of a neighbor row enumerated by the tests.
type nbrRow struct {
	j    int32
	dist float64
}

// candidates returns the half list's segment of owner a, every shell.
func candidates(nl *sph.NeighborList, n, a int) []int32 {
	shells := (len(nl.ShellOff) - 1) / n
	return nl.CandIdx[nl.ShellOff[a*shells]:nl.ShellOff[(a+1)*shells]]
}

// enumerateRows runs FindNeighbors on st — a rebuild, which leaves its
// search grid in st.Grid — and returns every particle's row as the list
// defines it: the pairs within 2·h_i of i after the smoothing-length update,
// in the order of the half list — owners ascending, each owner's candidates
// in theirs, a pair entering the rows of both endpoints as it comes up — and
// cut at the ngmax cap. Which pairs those are is the grid's word, not the
// list's: the walk at exactly 2·h_i that the closure-walk passes make, every
// pair of which the half list must store exactly once, with whichever
// endpoint.
func enumerateRows(t *testing.T, st *sph.State) [][]nbrRow {
	t.Helper()
	p := st.P
	st.FindNeighbors()
	nl := st.List
	within := make([]map[int32]float64, p.N)
	for i := range within {
		within[i] = map[int32]float64{}
		st.Grid.ForEachNeighbor(i, 2*p.H[i], func(j int, _, _, _, dist float64) { within[i][int32(j)] = dist })
	}
	rows := make([][]nbrRow, p.N)
	found := make([]int, p.N)
	enter := func(i, j int32) {
		if dist, ok := within[i][j]; ok {
			if found[i]++; len(rows[i]) < nl.Ngmax {
				rows[i] = append(rows[i], nbrRow{j, dist})
			}
		}
	}
	type pair struct{ lo, hi int32 }
	stored := map[pair]bool{}
	for a := int32(0); int(a) < p.N; a++ {
		for _, b := range candidates(nl, p.N, int(a)) {
			key := pair{min(a, b), max(a, b)}
			if a == b || stored[key] {
				t.Fatalf("candidate pair {%d,%d} stored twice (or with itself)", a, b)
			}
			stored[key] = true
			enter(a, b)
			enter(b, a)
		}
	}
	for i := range rows {
		if found[i] != len(within[i]) {
			t.Fatalf("particle %d: %d of its %d neighbors are among the candidates", i, found[i], len(within[i]))
		}
		if len(rows[i]) != nl.Count(i) {
			t.Fatalf("particle %d: row length %d, the list counts %d", i, len(rows[i]), nl.Count(i))
		}
	}
	return rows
}

// checkFold asserts the structural claims of the pair list against
// enumerated rows: every unordered pair some row holds is recorded exactly
// once, in the segment of the endpoint that owns its candidate and in that
// segment's order; PairSide names exactly the rows that hold it; and the
// records reaching a particle reproduce exactly its own row for the
// density-type passes, and its row plus the pairs only the other endpoint's
// support covers for momentum. Returns the number of such one-way momentum
// contributions.
func checkFold(t *testing.T, st *sph.State, rows [][]nbrRow) int {
	t.Helper()
	nl, n := st.List, st.P.N
	holds := func(i, j int32) bool {
		for _, e := range rows[i] {
			if e.j == j {
				return true
			}
		}
		return false
	}
	type pair struct{ lo, hi int32 }
	seen := map[pair]bool{}
	density := make([][]int32, n) // indices reaching i in the density-type passes
	momentum := make([][]int32, n)
	for a := int32(0); int(a) < n; a++ {
		cand := candidates(nl, n, int(a))
		for k := nl.PairOffsets[a]; k < nl.PairOffsets[a+1]; k++ {
			b := nl.PairIdx[k]
			key := pair{min(a, b), max(a, b)}
			if seen[key] {
				t.Fatalf("pair {%d,%d} recorded twice", a, b)
			}
			seen[key] = true
			// Records keep the candidate order: b comes up in what is left
			// of a's segment.
			at := slices.Index(cand, b)
			if at < 0 {
				t.Fatalf("record (%d,%d): not in the owner's candidate order", a, b)
			}
			cand = cand[at+1:]
			side := nl.PairSide[k]
			if side == 0 || side&^(sph.SideOwner|sph.SideOther) != 0 {
				t.Fatalf("record (%d,%d): side mask %#x", a, b, side)
			}
			if own, other := side&sph.SideOwner != 0, side&sph.SideOther != 0; own != holds(a, b) || other != holds(b, a) {
				t.Fatalf("record (%d,%d): side mask %#x, but the rows hold it: owner %v, other %v", a, b, side, holds(a, b), holds(b, a))
			}
			if side&sph.SideOwner != 0 {
				density[a] = append(density[a], b)
			}
			if side&sph.SideOther != 0 {
				density[b] = append(density[b], a)
			}
			if side&sph.SideOwner != 0 || nl.PairDist[k] >= 2*st.P.H[a] {
				momentum[a] = append(momentum[a], b)
			}
			if side&sph.SideOther != 0 || nl.PairDist[k] >= 2*st.P.H[b] {
				momentum[b] = append(momentum[b], a)
			}
		}
	}
	sorted := func(v []int32) []int32 {
		sort.Slice(v, func(a, b int) bool { return v[a] < v[b] })
		return v
	}
	// What must reach i: for density its own row; for momentum also every j
	// whose row holds i from beyond i's support.
	wantDensity, wantMomentum := make([][]int32, n), make([][]int32, n)
	held, oneWay := 0, 0
	for i := int32(0); int(i) < n; i++ {
		for _, e := range rows[i] {
			wantDensity[i] = append(wantDensity[i], e.j)
			wantMomentum[i] = append(wantMomentum[i], e.j)
			if e.dist >= 2*st.P.H[e.j] {
				wantMomentum[e.j] = append(wantMomentum[e.j], i)
				oneWay++
			}
			if e.j > i || !holds(e.j, i) {
				held++
			}
		}
	}
	if len(seen) != held {
		t.Fatalf("%d pair records, the rows hold %d unordered pairs", len(seen), held)
	}
	for i := 0; i < n; i++ {
		if !slices.Equal(sorted(density[i]), sorted(wantDensity[i])) {
			t.Fatalf("particle %d: density coverage %v != row %v", i, density[i], wantDensity[i])
		}
		if !slices.Equal(sorted(momentum[i]), sorted(wantMomentum[i])) {
			t.Fatalf("particle %d: momentum coverage %v != %v", i, momentum[i], wantMomentum[i])
		}
	}
	return oneWay
}

// TestSymmetricPairListCoverage checks the fold structurally against
// neighbor rows the test enumerates itself from a search grid, on the
// Evrard sphere whose smoothing-length contrasts produce one-way pairs.
func TestSymmetricPairListCoverage(t *testing.T) {
	p, opt := initcond.Evrard(initcond.DefaultEvrard(8))
	opt.NgTarget = 32
	st := sph.NewState(p, opt)
	rows := enumerateRows(t, st)
	if st.List.Overflow != 0 {
		t.Fatalf("default ngmax overflowed on %d rows", st.List.Overflow)
	}
	if checkFold(t, st, rows) == 0 {
		t.Error("setup produced no one-way pairs; the one-sided-support branch went untested")
	}
}

// TestSymmetricNgmaxTruncation drives every row to the ngmax cap, forcing
// the capped emission that ranks every pair in both its rows: the records
// must still cover exactly the truncated rows — the first Ngmax pairs of
// each in the half list's order — the density pass must reproduce the
// asymmetric sum over them, and the pipeline must stay runnable.
func TestSymmetricNgmaxTruncation(t *testing.T) {
	p, opt := initcond.Turbulence(initcond.DefaultTurbulence(8))
	opt.NgTarget = 32
	opt.NgMax = 8
	opt.Skin = 0
	opt.ReorderEvery = 0
	st := sph.NewState(p, opt)
	rows := enumerateRows(t, st)
	if st.List.Overflow == 0 {
		t.Fatal("cap did not overflow; the truncation path went untested")
	}
	checkFold(t, st, rows)

	st.XMass()
	want := make([]float64, p.N)
	for i := range want {
		want[i] = p.M[i] * opt.Kernel.W(0, p.H[i])
		for _, e := range rows[i] {
			want[i] += p.M[e.j] * opt.Kernel.W(e.dist, p.H[i])
		}
	}
	if dev := maxRelDev(p.Rho, want); dev > 1e-12 {
		t.Errorf("density over truncated rows deviates by %.3g from the per-particle sum", dev)
	}
	st.NormalizationGradh()
	st.EquationOfState()
	st.IADVelocityDivCurl()
	st.AVSwitches(st.Dt)
	st.MomentumEnergy()
	st.UpdateQuantities(st.Timestep())
	stepManual(st, false, nil)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.N; i++ {
		if math.IsNaN(p.AX[i]) || math.IsNaN(p.U[i]) || !(p.Rho[i] > 0) {
			t.Fatalf("particle %d: bad state after truncated steps (ax %g, u %g, rho %g)", i, p.AX[i], p.U[i], p.Rho[i])
		}
	}
}

// TestSymmetricSkinCheckpointMidIntervalResume is the gravity-coupled,
// open-box twin of TestSkinCheckpointMidIntervalResume: a checkpoint taken
// between rebuilds must resume bit-identically — the folded pair list is
// derived from the regenerated candidate snapshot, not persisted.
func TestSymmetricSkinCheckpointMidIntervalResume(t *testing.T) {
	p, opt := initcond.Evrard(initcond.DefaultEvrard(8))
	opt.NgTarget = 32
	opt.ReorderEvery = 3
	selfGravity := func(p *sph.Particles) {
		gravity.Build(p.X, p.Y, p.Z, p.M, opt.GravTheta, opt.GravEps, opt.GravG).
			AccelerationsInto(p.AX, p.AY, p.AZ, nil)
	}

	orig := sph.NewState(p, opt)
	const pre, post = 5, 6
	for s := 0; s < pre; s++ {
		orig.RunStep(selfGravity)
	}
	if orig.List == nil || len(orig.List.PairOffsets) != orig.P.N+1 {
		t.Fatal("no folded pair list after warm-up")
	}
	if orig.List.BuildStep >= orig.Step {
		t.Fatalf("checkpoint is not mid-interval: BuildStep %d, Step %d",
			orig.List.BuildStep, orig.Step)
	}

	var buf bytes.Buffer
	if err := orig.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := sph.ReadCheckpoint(&buf, opt)
	if err != nil {
		t.Fatal(err)
	}

	refreshes := 0
	for s := 0; s < post; s++ {
		origPrev, resumedPrev := orig.NbrStats, resumed.NbrStats
		orig.RunStep(selfGravity)
		resumed.RunStep(selfGravity)
		or := orig.NbrStats.Rebuilds - origPrev.Rebuilds
		rr := resumed.NbrStats.Rebuilds - resumedPrev.Rebuilds
		if or != rr {
			t.Fatalf("step %d: rebuild schedules diverged after resume (deltas %d vs %d)", orig.Step, or, rr)
		}
		refreshes += resumed.NbrStats.Refreshes - resumedPrev.Refreshes
		po, pr := orig.P, resumed.P
		for i := 0; i < po.N; i++ {
			if po.X[i] != pr.X[i] || po.VX[i] != pr.VX[i] || po.U[i] != pr.U[i] ||
				po.H[i] != pr.H[i] || po.NC[i] != pr.NC[i] {
				t.Fatalf("step %d: particle %d diverged after resume", orig.Step, i)
			}
		}
		if orig.Dt != resumed.Dt {
			t.Fatalf("step %d: dt diverged: %.17g vs %.17g", orig.Step, orig.Dt, resumed.Dt)
		}
	}
	if refreshes == 0 {
		t.Fatalf("resumed run never refreshed (stats %+v); the derived pair list went untested on refresh steps", resumed.NbrStats)
	}
}

// TestPairPassWithoutXMassWalks pins what the passes after XMass do on a
// pair list XMass has not swept — their kernel cache is missing, so they
// walk the grid instead of reading another list's values — and that the
// production path counts each such pass, and only those: the full step before
// them adds nothing, nor does a closure-walk run, which walks by choice.
func TestPairPassWithoutXMassWalks(t *testing.T) {
	run := func(walk bool) *sph.State {
		p, opt := initcond.Turbulence(initcond.DefaultTurbulence(8))
		opt.NgTarget = 32
		opt.ReorderEvery = 0
		opt.RebuildEvery = 1 // the grid a walk needs exists on rebuild steps only
		opt.ClosureWalk = walk
		st := sph.NewState(p, opt)
		stepManual(st, false, nil)
		if got := st.NbrStats.WalkFallbacks; got != 0 {
			t.Errorf("closure walk %v: %d passes of a full step counted as falling back", walk, got)
		}
		st.FindNeighbors()
		st.IADVelocityDivCurl()
		st.MomentumEnergy()
		return st
	}
	list, walk := run(false), run(true)
	compareStates(t, "unswept-list-vs-walk", list, walk, 1e-9)
	if got := list.NbrStats.WalkFallbacks; got != 2 {
		t.Errorf("WalkFallbacks = %d after two passes over an unswept list, want 2", got)
	}
	if got := walk.NbrStats.WalkFallbacks; got != 0 {
		t.Errorf("WalkFallbacks = %d on the closure walk, want 0", got)
	}
}

// TestSymmetricPassesSteadyStateAllocFree pins the allocation-free steady
// state of the folded passes: once the scatter accumulators and scratch
// are warm, a full density→momentum sweep performs no data-dependent
// allocation. A small constant number of allocations per sweep remains —
// escaping closure headers in the par layer — so the test asserts the
// count is tiny AND independent of problem size (no per-particle or
// per-pair allocation). The second input is a whole RunStep on a refresh
// step, which adds the one pass the sweep leaves out (FindNeighbors from
// the cached skin candidates: 14 of the same headers, and no buffer of the
// list's, which all keep their capacity) plus Timestep and UpdateQuantities.
func TestSymmetricPassesSteadyStateAllocFree(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	warm := func(nside int) *sph.State {
		p, opt := initcond.Turbulence(initcond.DefaultTurbulence(nside))
		opt.NgTarget = 32
		st := sph.NewState(p, opt)
		for s := 0; s < 2; s++ {
			st.RunStep(nil)
		}
		return st
	}
	sweepAllocs := func(nside int) float64 {
		st := warm(nside)
		st.FindNeighbors()
		return testing.AllocsPerRun(5, func() {
			st.XMass()
			st.NormalizationGradh()
			st.EquationOfState()
			st.IADVelocityDivCurl()
			st.AVSwitches(st.Dt)
			st.MomentumEnergy()
		})
	}
	// refreshStepAllocs is the fewest mallocs any of the next refresh steps
	// performs: steps differ in kind (a rebuild may reorder and regrow), so
	// each is counted on its own and the rebuilds are left out.
	refreshStepAllocs := func(nside int) float64 {
		st := warm(nside)
		least := math.Inf(1)
		var ms runtime.MemStats
		for s := 0; s < 6; s++ {
			refreshes := st.NbrStats.Refreshes
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			st.RunStep(nil)
			runtime.ReadMemStats(&ms)
			if st.NbrStats.Refreshes > refreshes {
				least = math.Min(least, float64(ms.Mallocs-before))
			}
		}
		if math.IsInf(least, 1) {
			t.Fatalf("no refresh step among 6 at %d³", nside)
		}
		return least
	}
	for _, in := range []struct {
		name    string
		allocs  func(nside int) float64
		ceiling float64
	}{
		{"pass sweep", sweepAllocs, 24},            // closure headers: 14
		{"refresh RunStep", refreshStepAllocs, 40}, // likewise: 31
	} {
		small, large := in.allocs(8), in.allocs(12)
		if small != large {
			t.Errorf("%s: steady-state allocations scale with problem size: %.0f at 8³ vs %.0f at 12³", in.name, small, large)
		}
		if large > in.ceiling {
			t.Errorf("%s: steady state allocates %.0f times, want a small constant (≤ %.0f)", in.name, large, in.ceiling)
		}
	}
}
