package core

import (
	"math"
	"slices"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/faults"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/mpisim"
)

// rankFaultWorld is n ranks, each with its own device, stepping one kernel
// batch through the world per phase as the run does, with the rank faults
// of plan applied at the end of each rank's share.
type rankFaultWorld struct {
	world *mpisim.World
	devs  []*gpusim.Device
	fs    *faultState
	kern  gpusim.KernelDesc
}

func newRankFaultWorld(t *testing.T, n int, plan *faults.Plan) *rankFaultWorld {
	t.Helper()
	if err := plan.Validate(); err != nil {
		t.Fatal(err)
	}
	pipe, err := Pipeline(Turbulence)
	if err != nil {
		t.Fatal(err)
	}
	w := &rankFaultWorld{
		world: mpisim.NewWorld(n, mpisim.DefaultNetwork(n), 1),
		fs:    newFaultState(Config{Ranks: n, Faults: plan}, 1),
		kern:  pipe[0].Kernel(10e6, 150, gpusim.Nvidia),
	}
	for r := 0; r < n; r++ {
		w.devs = append(w.devs, gpusim.NewDevice(gpusim.A100SXM480GB(), r))
	}
	return w
}

// kernels runs the kernel phase of step: rank r launches items·(1+r) and
// ran[r] counts the ranks' launches.
func (w *rankFaultWorld) kernels(step int, ran []int) []float64 {
	return w.world.Execute(func(r int) float64 {
		ran[r]++
		k := w.kern
		k.Items *= float64(1 + r)
		return w.fs.rankFault(w.world, w.devs[r], r, step, w.devs[r].Launch(&k))
	})
}

// idle runs the idle phase of step after the barrier that returned waits.
func (w *rankFaultWorld) idle(step int, waits []float64) {
	w.world.Execute(func(r int) float64 {
		w.devs[r].Idle(waits[r])
		return w.fs.rankFault(w.world, w.devs[r], r, step, 0)
	})
}

// TestRankFaultStragglerIdlesGPUThroughStretch: a straggler's phase lasts
// its factor times what the kernel took, its GPU idles through the extra
// time, and after the barrier every device clock is its rank clock.
func TestRankFaultStragglerIdlesGPUThroughStretch(t *testing.T) {
	const factor = 5
	w := newRankFaultWorld(t, 4, &faults.Plan{Seed: 1, Rules: []faults.Rule{
		{Kind: faults.Straggler, Target: faults.TargetRank, Ranks: []int{0}, Factor: factor},
	}})
	// What rank 0's kernel takes unstretched, on a device of its own.
	kernelS := gpusim.NewDevice(gpusim.A100SXM480GB(), 0).Launch(&w.kern)
	durs := w.kernels(0, make([]int, 4))
	if want := kernelS + kernelS*(factor-1); durs[0] != want {
		t.Fatalf("straggler phase %g s, want %d × %g s = %g s", durs[0], factor, kernelS, want)
	}
	for r, d := range durs {
		// During the phase the GPU ran the kernel and, for the straggler,
		// idled through the stretch: its clock is the whole phase.
		if now := w.devs[r].Now(); math.Abs(now-d) > 1e-12*d {
			t.Fatalf("rank %d: device clock %g s after a phase of %g s", r, now, d)
		}
	}
	// Rank 0 launched the smallest batch, yet at 5× it pulls the barrier.
	waits := w.world.Synchronize(durs)
	if waits[0] != 0 {
		t.Fatalf("the straggler waited %g s; it should pull the barrier", waits[0])
	}
	w.idle(0, waits)
	for r, dev := range w.devs {
		if got, want := dev.Now(), w.world.Clock(r); math.Abs(got-want) > 1e-12*want {
			t.Errorf("rank %d: device clock %.15g s, rank clock %.15g s", r, got, want)
		}
	}
}

// TestRankFaultCrashedRankStopsRunningAndPulling: a rank that crashes at
// the end of a phase banks that phase, then never runs again and pulls no
// barrier, however long the phase that killed it.
func TestRankFaultCrashedRankStopsRunningAndPulling(t *testing.T) {
	w := newRankFaultWorld(t, 3, crashPlan(2, 1))
	ran := make([]int, 3)
	for step := 0; step < 3; step++ {
		waits := w.world.Synchronize(w.kernels(step, ran))
		// Rank 2 launches the largest batch: alive, it pulls the barrier;
		// from its crash on, rank 1 does and rank 2 waits for nothing.
		puller := 2
		if step >= 1 {
			puller = 1
			if waits[2] != 0 || w.world.Clock(0) != w.world.Clock(1) {
				t.Fatalf("step %d: waits %v, clocks %g %g", step, waits, w.world.Clock(0), w.world.Clock(1))
			}
		}
		if waits[puller] != 0 || waits[0] == 0 {
			t.Fatalf("step %d: waits %v, want rank %d to pull the barrier", step, waits, puller)
		}
		w.idle(step, waits)
	}
	if ran[0] != 3 || ran[1] != 3 || ran[2] != 2 {
		t.Fatalf("kernel phases run per rank = %v, want [3 3 2]", ran)
	}
	fails := w.world.Failures()
	if len(fails) != 1 || fails[0].Rank != 2 {
		t.Fatalf("failures = %+v, want rank 2 once", fails)
	}
	// It died at the end of its step-1 kernel phase, that phase banked, and
	// its clock stayed there: past the barrier the survivors met at.
	if c := w.world.Clock(2); fails[0].TimeS != c {
		t.Fatalf("rank 2 died at %g s, its clock froze at %g s", fails[0].TimeS, c)
	}
}

// TestRankFaultDrawsTwicePerAliveRankPhase: the rank injector draws once at
// the end of each of a phase's two world steps, for each alive rank, so a
// rule that always fires counts two per phase until its rank dies. A crash
// pinned to step 1 comes first in the plan, so it wins the draw that fires
// it and ends rank 1's draws there.
func TestRankFaultDrawsTwicePerAliveRankPhase(t *testing.T) {
	const steps = 3
	cfg := Config{
		System: cluster.CSCSA100(), Ranks: 3, Sim: Turbulence, ParticlesPerRank: 10e6, Steps: steps,
		Degradation: DegradeDropRank,
		Faults: &faults.Plan{Name: "draws", Seed: 3, Rules: []faults.Rule{
			{Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{1}, Step: 1},
			{Kind: faults.Straggler, Target: faults.TargetRank, Ranks: []int{0, 1}, Factor: 2},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	phases := uint64(len(PipelineFunctionNames(Turbulence)))
	want := map[string]uint64{
		"rank/0 straggler":  2 * phases * steps,
		"rank/1 straggler":  2 * phases,
		"rank/1 rank-crash": 1,
	}
	got := map[string]uint64{}
	for _, ic := range res.Faults.Injected {
		got[ic.Stream+" "+string(ic.Kind)] = ic.Count
	}
	if len(got) != len(want) {
		t.Fatalf("injected %v, want %v", got, want)
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("%s: %d injections, want %d (all: %v)", k, got[k], n, got)
		}
	}
}

// TestRankFaultDrawCountsPinned pins the injections of a probabilistic rank
// plan: straggler and crash draws share each rank's stream, so a draw
// added, dropped or moved to another point of the phase shifts these
// counts. They are the counts of the same run from when the MPI world
// applied rank faults through a hook of its own.
func TestRankFaultDrawCountsPinned(t *testing.T) {
	cfg := Config{
		System: cluster.CSCSA100(), Ranks: 4, Sim: Evrard, ParticlesPerRank: 10e6, Steps: 5,
		Degradation: DegradeRedistribute,
		Faults: &faults.Plan{Name: "draws", Seed: 9, Rules: []faults.Rule{
			{Kind: faults.RankCrash, Target: faults.TargetRank, Ranks: []int{2}, Probability: 0.02},
			{Kind: faults.Straggler, Target: faults.TargetRank, Probability: 0.3, Factor: 1.5},
		}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []faults.InjectionCount{
		{Stream: "rank/0", Kind: faults.Straggler, Count: 28},
		{Stream: "rank/1", Kind: faults.Straggler, Count: 34},
		{Stream: "rank/2", Kind: faults.RankCrash, Count: 1},
		{Stream: "rank/2", Kind: faults.Straggler, Count: 4},
		{Stream: "rank/3", Kind: faults.Straggler, Count: 37},
	}
	if !slices.Equal(res.Faults.Injected, want) {
		t.Errorf("injected %v, want %v", res.Faults.Injected, want)
	}
	if f := res.Faults.Failures; len(f) != 1 || f[0].Rank != 2 || f[0].Step != 0 {
		t.Errorf("failures %+v, want rank 2 in step 0", f)
	}
}
