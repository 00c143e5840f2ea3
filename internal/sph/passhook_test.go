package sph

import "testing"

func TestRunStepPassHooks(t *testing.T) {
	s := latticeState(6, t)
	var hooked []string
	total := 0.0
	s.Opt.PassHook = func(pass string, seconds float64) {
		hooked = append(hooked, pass)
		if seconds < 0 {
			t.Errorf("pass %s has negative duration %g", pass, seconds)
		}
		total += seconds
	}
	s.RunStep(nil)
	if len(hooked) != len(PassNames) {
		t.Fatalf("hooked %d passes %v, want %d", len(hooked), hooked, len(PassNames))
	}
	for i, want := range PassNames {
		if hooked[i] != want {
			t.Errorf("pass %d = %q, want %q", i, hooked[i], want)
		}
	}
	if total <= 0 {
		t.Error("pass durations sum to zero")
	}
}

func TestRunStepHooksDoNotPerturb(t *testing.T) {
	a := latticeState(6, t)
	b := latticeState(6, t)
	b.Opt.PassHook = func(string, float64) {}
	for i := 0; i < 3; i++ {
		da := a.RunStep(nil)
		db := b.RunStep(nil)
		if da != db {
			t.Fatalf("step %d: dt diverged with hooks: %g vs %g", i, da, db)
		}
	}
	for i := range a.P.U {
		if a.P.U[i] != b.P.U[i] {
			t.Fatalf("internal energy diverged at particle %d", i)
		}
	}
}
