package sph_test

// Equivalence tests between the production pipeline (the default: folded
// pair list) and the closure-walk reference: both must produce the same
// physics over multi-step runs, and the tabulated kernel must track its
// analytic base within the documented error bound.

import (
	"bytes"
	"math"
	"testing"

	"sphenergy/internal/gravity"
	"sphenergy/internal/initcond"
	"sphenergy/internal/kernel"
	"sphenergy/internal/sph"
)

// stepManual advances one full pipeline iteration, optionally coupling
// self-gravity the same way integration_test.go's Evrard run does.
func stepManual(st *sph.State, withGravity bool, pot []float64) {
	st.FindNeighbors()
	finishStep(st, withGravity, pot)
}

// finishStep is the rest of a step whose FindNeighbors has run.
func finishStep(st *sph.State, withGravity bool, pot []float64) {
	st.XMass()
	st.NormalizationGradh()
	st.EquationOfState()
	st.IADVelocityDivCurl()
	st.AVSwitches(st.Dt)
	st.MomentumEnergy()
	if withGravity {
		p := st.P
		tree := gravity.Build(p.X, p.Y, p.Z, p.M, st.Opt.GravTheta, st.Opt.GravEps, st.Opt.GravG)
		tree.AccelerationsInto(p.AX, p.AY, p.AZ, pot)
	}
	st.UpdateQuantities(st.Timestep())
}

// maxRelDev returns the maximum relative deviation between two fields,
// normalized by the largest magnitude in either (so near-zero entries
// compare absolutely against the field scale).
func maxRelDev(a, b []float64) float64 {
	scale := 0.0
	for i := range a {
		if v := math.Abs(a[i]); v > scale {
			scale = v
		}
		if v := math.Abs(b[i]); v > scale {
			scale = v
		}
	}
	if scale == 0 {
		return 0
	}
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i]-b[i]) / scale; d > worst {
			worst = d
		}
	}
	return worst
}

func comparePipelines(t *testing.T, mkState func() *sph.State, steps int, withGravity bool, tol float64) {
	t.Helper()

	walk := mkState()
	walk.Opt.ClosureWalk = true
	walk.Opt.ReorderEvery = 0
	list := mkState()
	list.Opt.ClosureWalk = false
	list.Opt.ReorderEvery = 0

	var potW, potL []float64
	if withGravity {
		potW = make([]float64, walk.P.N)
		potL = make([]float64, list.P.N)
	}
	for s := 0; s < steps; s++ {
		stepManual(walk, withGravity, potW)
		stepManual(list, withGravity, potL)
	}
	if list.List == nil {
		t.Fatal("list pipeline did not build a neighbor list")
	}
	if walk.List != nil {
		t.Fatal("walk pipeline unexpectedly built a neighbor list")
	}
	if got := list.NbrStats.WalkFallbacks; got != 0 {
		t.Fatalf("%d passes of the list pipeline walked the grid", got)
	}

	pw, pl := walk.P, list.P
	for i := range pw.NC {
		if pw.NC[i] != pl.NC[i] {
			t.Fatalf("particle %d: neighbor count %d (walk) != %d (list)", i, pw.NC[i], pl.NC[i])
		}
	}
	fields := []struct {
		name string
		a, b []float64
	}{
		{"rho", pw.Rho, pl.Rho},
		{"u", pw.U, pl.U},
		{"h", pw.H, pl.H},
		{"ax", pw.AX, pl.AX},
		{"ay", pw.AY, pl.AY},
		{"az", pw.AZ, pl.AZ},
		{"x", pw.X, pl.X},
		{"vx", pw.VX, pl.VX},
	}
	for _, f := range fields {
		if dev := maxRelDev(f.a, f.b); dev > tol {
			t.Errorf("%s deviates by %.3g (> %g) after %d steps", f.name, dev, tol, steps)
		}
	}
	if walk.Dt != 0 && math.Abs(walk.Dt-list.Dt)/walk.Dt > tol {
		t.Errorf("dt deviates: walk %g list %g", walk.Dt, list.Dt)
	}
}

// TestNeighborListMatchesWalkTurbulence checks the equivalence on the
// periodic subsonic-turbulence setup over several steps. The two pipelines
// integrate the same pair sets and differ only in floating-point summation
// order, so the tolerance is far below any physical scale.
func TestNeighborListMatchesWalkTurbulence(t *testing.T) {
	mk := func() *sph.State {
		p, opt := initcond.Turbulence(initcond.DefaultTurbulence(10))
		opt.NgTarget = 32
		return sph.NewState(p, opt)
	}
	comparePipelines(t, mk, 4, false, 1e-9)
}

// TestNeighborListMatchesWalkEvrard checks the equivalence on the
// non-periodic, gravity-coupled Evrard collapse, which has strong
// smoothing-length contrasts and therefore exercises the one-way pairs of
// the list (inside one endpoint's support only).
func TestNeighborListMatchesWalkEvrard(t *testing.T) {
	mk := func() *sph.State {
		p, opt := initcond.Evrard(initcond.DefaultEvrard(10))
		opt.NgTarget = 32
		return sph.NewState(p, opt)
	}
	comparePipelines(t, mk, 3, true, 1e-9)
}

// TestNgmaxOverflowTruncates pins the ngmax contract: with a cap far below
// the actual neighbor count, FindNeighbors must truncate every list at the
// cap, report the overflow, and leave the pipeline runnable.
func TestNgmaxOverflowTruncates(t *testing.T) {
	p, opt := initcond.Turbulence(initcond.DefaultTurbulence(8))
	opt.NgTarget = 32
	opt.NgMax = 8
	st := sph.NewState(p, opt)
	st.FindNeighbors()
	if st.List == nil {
		t.Fatal("no neighbor list built")
	}
	if st.List.Ngmax != 8 {
		t.Fatalf("Ngmax = %d, want 8", st.List.Ngmax)
	}
	if st.List.Overflow == 0 {
		t.Fatal("expected overflow with NgMax=8 and ~32 real neighbors")
	}
	for i := 0; i < p.N; i++ {
		if c := st.List.Count(i); c > 8 {
			t.Fatalf("particle %d holds %d neighbors, cap is 8", i, c)
		}
	}
	st.XMass()
	st.NormalizationGradh()
	st.EquationOfState()
	for i := 0; i < p.N; i++ {
		if math.IsNaN(st.P.Rho[i]) || st.P.Rho[i] <= 0 {
			t.Fatalf("particle %d: bad density %g after truncated list", i, st.P.Rho[i])
		}
	}
	// The default cap must be generous enough that the same setup does not
	// overflow at all.
	p2, opt2 := initcond.Turbulence(initcond.DefaultTurbulence(8))
	opt2.NgTarget = 32
	st2 := sph.NewState(p2, opt2)
	st2.FindNeighbors()
	if st2.List.Overflow != 0 {
		t.Fatalf("default ngmax (%d) overflowed on a plain lattice: %d particles",
			st2.List.Ngmax, st2.List.Overflow)
	}
}

// TestTabulatedKernelPipelineWithinBound bounds the density deviation
// between the analytic Wendland C2 kernel and its checked table at the
// default resolution: per-evaluation error is within kernel.TableRelTol of
// the kernel peak, so the summed density must stay within a small multiple
// of it.
func TestTabulatedKernelPipelineWithinBound(t *testing.T) {
	mk := func(k kernel.Kernel) *sph.State {
		p, opt := initcond.Turbulence(initcond.DefaultTurbulence(8))
		opt.NgTarget = 32
		opt.Kernel = k
		st := sph.NewState(p, opt)
		st.FindNeighbors()
		st.XMass()
		return st
	}
	exact := mk(kernel.WendlandC2{})
	table := mk(kernel.NewCheckedTable(kernel.WendlandC2{}, kernel.DefaultTablePoints))
	dev := maxRelDev(exact.P.Rho, table.P.Rho)
	// ~40x the per-evaluation bound accounts for summation over the
	// neighbor set; measured deviation is well under this.
	limit := 40 * kernel.TableRelTol
	if dev > limit {
		t.Errorf("tabulated-kernel density deviates by %.3g (> %.3g)", dev, limit)
	}
	if dev == 0 {
		t.Error("analytic and tabulated kernels agree exactly; table accuracy test is vacuous")
	}
}

// TestRunStepSFCReorderKeepsPhysics runs with an aggressive reorder cadence
// and checks the reordering is transparent: the trajectory stays valid and
// deterministic, and global invariants (mass, momentum) survive the
// permutation.
func TestRunStepSFCReorderKeepsPhysics(t *testing.T) {
	run := func(reorderEvery int) (*sph.State, float64) {
		p, opt := initcond.Turbulence(initcond.DefaultTurbulence(8))
		opt.NgTarget = 32
		opt.ReorderEvery = reorderEvery
		st := sph.NewState(p, opt)
		mass := 0.0
		for i := 0; i < p.N; i++ {
			mass += p.M[i]
		}
		for s := 0; s < 6; s++ {
			st.RunStep(nil)
		}
		return st, mass
	}
	a, massA := run(2) // reorders at steps 2 and 4
	b, _ := run(2)
	if err := a.P.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := a.NbrStats.WalkFallbacks; got != 0 {
		t.Errorf("%d passes walked the grid: a reorder inside RunStep is followed by its rebuild", got)
	}
	massAfter := 0.0
	for i := 0; i < a.P.N; i++ {
		massAfter += a.P.M[i]
	}
	if math.Abs(massAfter-massA) > 1e-12*massA {
		t.Errorf("mass changed across reorder: %g -> %g", massA, massAfter)
	}
	// Determinism: identical runs stay bit-identical through reorders.
	for i := range a.P.X {
		if a.P.X[i] != b.P.X[i] || a.P.U[i] != b.P.U[i] {
			t.Fatalf("reordered trajectory is not deterministic at particle %d", i)
		}
	}
	// The physics must match a no-reorder run to floating-point-reordering
	// tolerance (the permutation only changes summation order).
	c, _ := run(0)
	eA := a.ComputeEnergies(nil)
	eC := c.ComputeEnergies(nil)
	if rel := math.Abs(eA.Total()-eC.Total()) / math.Abs(eC.Total()); rel > 1e-9 {
		t.Errorf("reordered run total energy deviates by %.3g", rel)
	}
}

// TestReorderBySFCSortsKeys checks the particles really are in Morton order
// after an explicit reorder and that stale neighbor structures are dropped:
// the grid goes, the list is emptied — it keeps its buffers for the rebuild
// the next step owes — and no checkpoint takes references from it.
func TestReorderBySFCSortsKeys(t *testing.T) {
	p, opt := initcond.Turbulence(initcond.DefaultTurbulence(8))
	st := sph.NewState(p, opt)
	st.RunStep(nil)
	pairs := cap(st.List.PairIdx)
	st.ReorderBySFC()
	if nl := st.List; st.Grid != nil || len(nl.PairOffsets)+len(nl.CandIdx)+len(nl.ShellOff)+len(nl.RefH) != 0 || st.PreCheck() != "init" {
		t.Error("reorder must invalidate the neighbor structures")
	}
	if cap(st.List.PairIdx) != pairs || pairs == 0 {
		t.Errorf("the emptied list holds room for %d pair records, %d before the reorder", cap(st.List.PairIdx), pairs)
	}
	var ckpt bytes.Buffer
	if err := st.WriteCheckpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	if restored, err := sph.ReadCheckpoint(&ckpt, opt); err != nil || restored.List != nil {
		t.Errorf("a checkpoint of the reordered state restores a list (%v), error %v", restored.List != nil, err)
	}
	for i := 1; i < p.N; i++ {
		if p.Keys[i-1] > p.Keys[i] {
			t.Fatalf("keys not sorted at %d: %v > %v", i, p.Keys[i-1], p.Keys[i])
		}
	}
	// Pipeline must come back cleanly from the permuted state.
	st.RunStep(nil)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}
