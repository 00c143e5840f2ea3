package sph_test

// Verlet-skin equivalence and restart tests: refreshing from the skin must
// match rebuilding on every step to tight tolerance on real problems, the
// two ways of asking for a rebuild on every step must agree bit for bit,
// and a checkpoint/restart must replay the same rebuild schedule.

import (
	"bytes"
	"math"
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

// TestSkinDisabledBitIdentical pins the opt-out contract: Skin=0 and
// RebuildEvery=1 both rebuild on every step and never refresh, producing
// byte-identical state — not merely state within tolerance.
func TestSkinDisabledBitIdentical(t *testing.T) {
	run := func(mutate func(*sph.Options)) *sph.State {
		p, opt := initcond.Turbulence(initcond.DefaultTurbulence(8))
		opt.NgTarget = 32
		opt.ReorderEvery = 2
		mutate(&opt)
		st := sph.NewState(p, opt)
		for s := 0; s < 5; s++ {
			st.RunStep(nil)
		}
		return st
	}
	zero := run(func(o *sph.Options) { o.Skin = 0 })
	every := run(func(o *sph.Options) { o.RebuildEvery = 1 })

	pz, pe := zero.P, every.P
	fields := []struct {
		name string
		a, b []float64
	}{
		{"x", pz.X, pe.X}, {"y", pz.Y, pe.Y}, {"z", pz.Z, pe.Z},
		{"vx", pz.VX, pe.VX}, {"h", pz.H, pe.H},
		{"rho", pz.Rho, pe.Rho}, {"u", pz.U, pe.U}, {"ax", pz.AX, pe.AX},
	}
	for _, f := range fields {
		for i := range f.a {
			if f.a[i] != f.b[i] {
				t.Fatalf("%s[%d] differs between Skin=0 and RebuildEvery=1: %.17g vs %.17g",
					f.name, i, f.a[i], f.b[i])
			}
		}
	}
	for i := range pz.NC {
		if pz.NC[i] != pe.NC[i] {
			t.Fatalf("NC[%d] differs: %d vs %d", i, pz.NC[i], pe.NC[i])
		}
	}
	if zero.Dt != every.Dt {
		t.Fatalf("dt differs: %.17g vs %.17g", zero.Dt, every.Dt)
	}
	if zero.NbrStats.Refreshes != 0 || every.NbrStats.Refreshes != 0 {
		t.Fatal("disabled skin still served refreshes")
	}
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
}
