package sph_test

import (
	"testing"

	"sphenergy/internal/initcond"
	"sphenergy/internal/sph"
)

// TestNeighborEventMatchesStats runs a real problem with the hook installed
// and checks the event stream reconciles exactly with the NbrStats cause
// counters — every rebuild and refresh accounted for, none invented.
func TestNeighborEventMatchesStats(t *testing.T) {
	p, opt := initcond.Turbulence(initcond.DefaultTurbulence(8))
	opt.NgTarget = 32
	counts := map[string]int{}
	var steps []int
	opt.NeighborEvent = func(step int, kind string) {
		counts[kind]++
		steps = append(steps, step)
	}
	st := sph.NewState(p, opt)
	const n = 6
	for i := 0; i < n; i++ {
		st.RunStep(nil)
	}
	if len(steps) != n {
		t.Fatalf("hook fired %d times over %d steps, want once per step", len(steps), n)
	}
	ns := st.NbrStats
	want := map[string]int{
		"init": ns.RebuildInit, "drift": ns.RebuildDrift, "overflow": ns.RebuildOverflow,
		"refresh": ns.Refreshes,
	}
	for kind, w := range want {
		if counts[kind] != w {
			t.Errorf("%s events = %d, stats say %d (counts %v, stats %+v)",
				kind, counts[kind], w, counts, ns)
		}
	}
	if counts["init"] == 0 || counts["refresh"] == 0 {
		t.Errorf("expected at least one init and one refresh: %v", counts)
	}
}

// TestNeighborEventNilHookUnchanged pins that installing the hook does not
// perturb the simulation: same seed, hook on and off, bit-identical state.
func TestNeighborEventNilHookUnchanged(t *testing.T) {
	run := func(hook func(int, string)) *sph.State {
		p, opt := initcond.Turbulence(initcond.DefaultTurbulence(8))
		opt.NgTarget = 32
		opt.NeighborEvent = hook
		st := sph.NewState(p, opt)
		for i := 0; i < 4; i++ {
			st.RunStep(nil)
		}
		return st
	}
	a := run(nil)
	b := run(func(int, string) {})
	pa, pb := a.P, b.P
	for i := range pa.X {
		if pa.X[i] != pb.X[i] || pa.Rho[i] != pb.Rho[i] || pa.U[i] != pb.U[i] {
			t.Fatalf("particle %d state diverged with the hook installed", i)
		}
	}
	if a.Dt != b.Dt {
		t.Fatalf("dt diverged: %g vs %g", a.Dt, b.Dt)
	}
}
