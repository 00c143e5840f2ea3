package sph_test

// Verlet-skin equivalence and restart tests: refreshing from the skin must
// match rebuilding on every step to tight tolerance on real problems, the
// two ways of asking for a rebuild on every step must agree bit for bit,
// and a checkpoint/restart must replay the same rebuild schedule.

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"

	"sphenergy/internal/initcond"
	"sphenergy/internal/sph"
)

// compareSkinToRebuild runs the same initial condition with the Verlet skin
// on and off and holds every physics field to tol.
func compareSkinToRebuild(t *testing.T, mkState func() *sph.State, steps int, withGravity bool, tol float64) {
	t.Helper()

	skin := mkState()
	skin.Opt.ReorderEvery = 0
	if skin.Opt.Skin <= 0 {
		t.Fatal("skin not enabled by default; the comparison is vacuous")
	}
	ref := mkState()
	ref.Opt.ReorderEvery = 0
	ref.Opt.Skin = 0

	var potS, potR []float64
	if withGravity {
		potS = make([]float64, skin.P.N)
		potR = make([]float64, ref.P.N)
	}
	for s := 0; s < steps; s++ {
		stepManual(skin, withGravity, potS)
		stepManual(ref, withGravity, potR)
	}
	if skin.NbrStats.Refreshes == 0 {
		t.Fatalf("no refresh steps in %d steps (stats %+v); the skin path went untested", steps, skin.NbrStats)
	}
	if ref.NbrStats.Rebuilds != steps {
		t.Fatalf("reference rebuilt %d times over %d steps; Skin = 0 must rebuild on every one", ref.NbrStats.Rebuilds, steps)
	}
	if skin.NbrStats.WalkFallbacks != 0 || ref.NbrStats.WalkFallbacks != 0 {
		t.Fatalf("passes walked the grid: %d with the skin, %d without", skin.NbrStats.WalkFallbacks, ref.NbrStats.WalkFallbacks)
	}

	ps, pr := skin.P, ref.P
	for i := range ps.NC {
		if ps.NC[i] != pr.NC[i] {
			t.Fatalf("particle %d: neighbor count %d (skin) != %d (rebuild)", i, ps.NC[i], pr.NC[i])
		}
	}
	fields := []struct {
		name string
		a, b []float64
	}{
		{"rho", ps.Rho, pr.Rho},
		{"u", ps.U, pr.U},
		{"h", ps.H, pr.H},
		{"ax", ps.AX, pr.AX},
		{"ay", ps.AY, pr.AY},
		{"az", ps.AZ, pr.AZ},
		{"x", ps.X, pr.X},
		{"vx", ps.VX, pr.VX},
	}
	for _, f := range fields {
		if dev := maxRelDev(f.a, f.b); dev > tol {
			t.Errorf("%s deviates by %.3g (> %g) after %d steps", f.name, dev, tol, steps)
		}
	}
	if ref.Dt != 0 && math.Abs(skin.Dt-ref.Dt)/ref.Dt > tol {
		t.Errorf("dt deviates: skin %g rebuild %g", skin.Dt, ref.Dt)
	}
}

func TestSkinMatchesRebuildTurbulence(t *testing.T) {
	mk := func() *sph.State {
		p, opt := initcond.Turbulence(initcond.DefaultTurbulence(10))
		opt.NgTarget = 32
		return sph.NewState(p, opt)
	}
	compareSkinToRebuild(t, mk, 6, false, 1e-9)
}

func TestSkinMatchesRebuildEvrard(t *testing.T) {
	mk := func() *sph.State {
		p, opt := initcond.Evrard(initcond.DefaultEvrard(10))
		opt.NgTarget = 32
		return sph.NewState(p, opt)
	}
	compareSkinToRebuild(t, mk, 4, true, 1e-9)
}

// TestSkinCheckpointMidIntervalResume: a checkpoint taken between rebuilds
// must restart bit-identically — same particle state after every subsequent
// step and the same rebuild/refresh schedule, because the candidate list is
// regenerated from the checkpointed reference snapshot.
func TestSkinCheckpointMidIntervalResume(t *testing.T) {
	p, opt := initcond.Turbulence(initcond.DefaultTurbulence(8))
	opt.NgTarget = 32
	opt.ReorderEvery = 3

	orig := sph.NewState(p, opt)
	const pre, post = 5, 6
	for s := 0; s < pre; s++ {
		orig.RunStep(nil)
	}
	if orig.List == nil {
		t.Fatal("no neighbor list after warm-up")
	}
	if orig.List.BuildStep >= orig.Step {
		t.Fatalf("checkpoint is not mid-interval: BuildStep %d, Step %d — shrink ReorderEvery or steps",
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
	if resumed.List == nil || resumed.List.BuildStep != orig.List.BuildStep {
		t.Fatal("restored state lost the skin reference snapshot")
	}

	origBase, resumedBase := orig.NbrStats, resumed.NbrStats
	for s := 0; s < post; s++ {
		origPrev, resumedPrev := orig.NbrStats, resumed.NbrStats
		orig.RunStep(nil)
		resumed.RunStep(nil)
		or := orig.NbrStats.Rebuilds - origPrev.Rebuilds
		rr := resumed.NbrStats.Rebuilds - resumedPrev.Rebuilds
		if or != rr {
			t.Fatalf("step %d: original %s but resumed run did not follow (deltas %d vs %d)",
				orig.Step, map[bool]string{true: "rebuilt", false: "refreshed"}[or > 0], or, rr)
		}
		po, pr := orig.P, resumed.P
		for i := 0; i < po.N; i++ {
			if po.X[i] != pr.X[i] || po.VX[i] != pr.VX[i] || po.H[i] != pr.H[i] || po.NC[i] != pr.NC[i] {
				t.Fatalf("step %d: particle %d diverged after resume", orig.Step, i)
			}
		}
		if orig.Dt != resumed.Dt {
			t.Fatalf("step %d: dt diverged: %.17g vs %.17g", orig.Step, orig.Dt, resumed.Dt)
		}
	}
	dOrig := orig.NbrStats.Refreshes - origBase.Refreshes
	dRes := resumed.NbrStats.Refreshes - resumedBase.Refreshes
	if dOrig != dRes {
		t.Fatalf("refresh schedules diverged after resume: %d vs %d over %d steps", dOrig, dRes, post)
	}
	if dRes == 0 {
		t.Fatalf("resumed run never refreshed (stats %+v); the regenerated candidates went untested", resumed.NbrStats)
	}
	if orig.NbrStats.WalkFallbacks != 0 || resumed.NbrStats.WalkFallbacks != 0 {
		t.Fatalf("passes walked the grid: %d in the original run, %d in the resumed one", orig.NbrStats.WalkFallbacks, resumed.NbrStats.WalkFallbacks)
	}
}

// TestListIndependentOfWorkerCount: what FindNeighbors leaves — smoothing
// lengths, counts, the candidate shells, row lengths, the pair list — is the
// same bit for bit however many workers share the pass, on a periodic and an open
// problem large enough to split four ways, on a rebuild step, a refresh
// step and a step whose refresh runs out of skin half-way and rebuilds
// (forced, once the drift allows, by a neighbor target that grows every h
// by the cap). Three states, one per width, make each FindNeighbors call
// from the same positions and smoothing lengths; the first then finishes
// the step for all of them.
func TestListIndependentOfWorkerCount(t *testing.T) {
	// Fast enough for the skin to run out within a few steps: supersonic
	// turbulence, and a sphere already falling inward.
	spec := initcond.DefaultTurbulence(19)
	spec.Mach = 1.5
	tp, topt := initcond.Turbulence(spec)
	ep, eopt := initcond.Evrard(initcond.DefaultEvrard(23))
	for i := range ep.X {
		ep.VX[i], ep.VY[i], ep.VZ[i] = -2*ep.X[i], -2*ep.Y[i], -2*ep.Z[i]
	}
	for _, pr := range []struct {
		name    string
		p       *sph.Particles
		opt     sph.Options
		gravity bool
	}{{"turbulence", tp, topt, false}, {"evrard", ep, eopt, true}} {
		t.Run(pr.name, func(t *testing.T) {
			width := runtime.GOMAXPROCS(0)
			defer runtime.GOMAXPROCS(width)
			pr.opt.NgTarget = 32
			pr.opt.ReorderEvery = 0
			widths := []int{1, 2, 4}
			lead := sph.NewState(pr.p, pr.opt)
			states := []*sph.State{lead, sph.NewState(sph.NewParticles(pr.p.N), pr.opt), sph.NewState(sph.NewParticles(pr.p.N), pr.opt)}
			pot := make([]float64, pr.p.N)
			kinds := map[string]int{}
			for step := 0; step < 12 && (kinds["refresh"] == 0 || kinds["abort"] == 0 || kinds["rebuild"] == 0); step++ {
				pre, target := lead.PreCheck(), pr.opt.NgTarget
				if pre == "" && kinds["refresh"] > 0 {
					target = 1 << 20 // every h grows by the cap: a rebuild once the drift is up
				}
				x, y, z, h := slices.Clone(lead.P.X), slices.Clone(lead.P.Y), slices.Clone(lead.P.Z), slices.Clone(lead.P.H)
				for k := len(states) - 1; k >= 0; k-- {
					st := states[k]
					copy(st.P.X, x)
					copy(st.P.Y, y)
					copy(st.P.Z, z)
					copy(st.P.H, h)
					st.Step, st.Opt.NgTarget = lead.Step, target
					runtime.GOMAXPROCS(widths[k])
					st.FindNeighbors()
					a, b := states[len(states)-1], st
					if d := sph.ListDiff(a, b); a.NbrStats != b.NbrStats || d != "" {
						t.Fatalf("step %d (%+v): FindNeighbors at GOMAXPROCS %d differs from GOMAXPROCS %d: %s", step, a.NbrStats, widths[k], widths[len(widths)-1], d)
					}
				}
				switch {
				case lead.List.BuildStep != lead.Step:
					kinds["refresh"]++
				case pre == "":
					kinds["abort"]++
				default:
					kinds["rebuild"]++
				}
				runtime.GOMAXPROCS(width)
				lead.Opt.NgTarget = pr.opt.NgTarget
				finishStep(lead, pr.gravity, pot)
			}
			if kinds["refresh"] == 0 || kinds["abort"] == 0 || kinds["rebuild"] == 0 {
				t.Errorf("steps by kind %v: want a rebuild, a refresh and a refresh that ran out of skin", kinds)
			}
		})
	}
}

// TestShellPrefixMatchesAllShells holds the two levers that only move cost —
// streaming the shells below the drift bound instead of all of them, keeping
// the survivors of a 3 % growth instead of a 30 % one — to a sweep that pulls
// neither (SweepAllShells), bit for bit, at every step of several rebuild
// cycles on supersonic turbulence and on a gravity-coupled sphere already
// falling inward; and both to the closure walk's counts, smoothing lengths
// and row lengths.
func TestShellPrefixMatchesAllShells(t *testing.T) {
	spec := initcond.DefaultTurbulence(13)
	spec.Mach = 1.5
	tp, topt := initcond.Turbulence(spec)
	ep, eopt := initcond.Evrard(initcond.DefaultEvrard(15))
	for i := range ep.X {
		ep.VX[i], ep.VY[i], ep.VZ[i] = -2*ep.X[i], -2*ep.Y[i], -2*ep.Z[i]
	}
	for _, pr := range []struct {
		name    string
		p       *sph.Particles
		opt     sph.Options
		gravity bool
	}{{"turbulence", tp, topt, false}, {"evrard", ep, eopt, true}} {
		t.Run(pr.name, func(t *testing.T) {
			pr.opt.NgTarget = 32
			pr.opt.ReorderEvery = 0
			st := sph.NewState(pr.p, pr.opt)
			pot := make([]float64, pr.p.N)
			for step := 0; step < 24; step++ {
				ref, walk := sph.Twin(st), sph.WalkTwin(st)
				st.FindNeighbors()
				ref.SweepAllShells(st.List.BuildStep == st.Step)
				if d := sph.ListDiff(st, ref); d != "" {
					t.Fatalf("step %d (%+v): against the sweep of every shell: %s", step, st.NbrStats, d)
				}
				sph.RequireRowsOfWalk(t, st, walk)
				finishStep(st, pr.gravity, pot)
			}
			if got := st.NbrStats; got.Rebuilds < 3 || got.Refreshes < 8 || got.WalkFallbacks != 0 {
				t.Errorf("NbrStats %+v: want several rebuild cycles, refreshes between them and no pass off the list", got)
			}
		})
	}
}

// TestCappedRowsIndependentOfWorkerCount: with a cap every row exceeds, which
// pairs a row keeps is decided by the order of the half list alone, so the
// capped list is the same bit for bit at 1, 2 and 4 workers.
func TestCappedRowsIndependentOfWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	build := func(procs int) *sph.State {
		runtime.GOMAXPROCS(procs)
		p, opt := initcond.Turbulence(initcond.DefaultTurbulence(19))
		opt.NgTarget = 32
		opt.NgMax = 24
		st := sph.NewState(p, opt)
		st.FindNeighbors()
		return st
	}
	serial := build(1)
	if serial.List.Overflow == 0 {
		t.Fatal("no row overflowed; the capped emission went untested")
	}
	for i := 0; i < serial.P.N; i++ {
		if n := serial.List.Count(i); n > 24 {
			t.Fatalf("particle %d: row of %d under a cap of 24", i, n)
		}
	}
	for _, procs := range []int{2, 4} {
		if d := sph.ListDiff(serial, build(procs)); d != "" {
			t.Errorf("GOMAXPROCS %d against 1: %s", procs, d)
		}
	}
}
