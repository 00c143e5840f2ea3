// Command perfgate is the bench regression sentinel: it diffs a fresh
// sphbench run against the committed BENCH_sph.json baseline and fails
// (exit 1) when the pipeline got slower beyond noise. It is wired into
// `make check` in smoke mode so perf regressions fail CI like test
// regressions do.
//
// The checks are deliberately noise-aware and machine-portable:
//
//   - Per-pass share of total time is the primary check — shares are
//     ratios, so they survive moving to a faster or slower machine, and a
//     pass whose share jumps is exactly what a perf regression looks like.
//   - Total ns/particle and per-pass ns/particle carry generous relative
//     tolerances plus absolute floors (cheap passes are timer noise).
//   - The rebuild/refresh split of the neighbor list is deterministic
//     for identical trajectories, so counts must match within ±slack; when
//     step counts differ (smoke runs are shorter) the rebuild interval is
//     compared instead.
//   - Allocation counts per step get a relative tolerance plus an absolute
//     slack so GC-timing jitter does not flake the gate.
//   - The GOMAXPROCS sweep carries an absolute parallel-efficiency floor
//     on the folded pair passes — skipped gracefully when the fresh run did
//     not measure it, and when the machine has too few CPUs (the fresh run
//     records num_cpu for exactly this reason).
//
// Examples:
//
//	sphbench -out /tmp/fresh.json && perfgate -baseline BENCH_sph.json /tmp/fresh.json
//	perfgate -smoke -baseline BENCH_sph.json /tmp/fresh.json   # CI tolerances
//
// Refreshing the baseline after an intentional perf change:
//
//	go run ./cmd/sphbench -sizes 20,30 -steps 4 -out BENCH_sph.json
//	git add BENCH_sph.json   # commit alongside the change that caused it
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"sphenergy/internal/benchfmt"
)

// Tolerances bound how far a fresh run may drift from the baseline before
// the gate fails.
type Tolerances struct {
	// TotalFrac is the allowed relative increase of total ns/particle.
	TotalFrac float64
	// ShareAbs is the allowed absolute drift of a pass's share of total
	// time (0.10 = ten percentage points); passes below ShareMin of the
	// baseline total are ignored as noise.
	ShareAbs, ShareMin float64
	// PassFrac is the allowed relative increase of a single pass's
	// ns/particle; passes cheaper than PassMinNs in the baseline are
	// skipped. PassFrac <= 0 disables the per-pass check (smoke mode).
	PassFrac, PassMinNs float64
	// SpeedupFrac is the floor on fresh speedups relative to baseline:
	// fresh >= base * SpeedupFrac.
	SpeedupFrac float64
	// AllocFrac/AllocAbs bound allocs per step: fresh <= base*(1+AllocFrac)+AllocAbs.
	AllocFrac, AllocAbs float64
	// CountSlack is the tolerance on rebuild/refresh counts when the step
	// counts match; IntervalFrac bounds the rebuild-interval drift when
	// they do not.
	CountSlack   int
	IntervalFrac float64
	// EffProcs/EffFloor assert the folded passes' parallel efficiency
	// t1/(P·tP) at P = EffProcs from the fresh run's GOMAXPROCS sweep.
	// Skipped when the sweep is absent, lacks the needed points, or the
	// fresh machine has fewer than EffProcs CPUs (a 1-core container
	// cannot exhibit parallel speedup); <= 0 disables.
	EffProcs int
	EffFloor float64
}

// Default is tuned for same-machine, same-config comparisons (the normal
// `make perfgate` flow).
func Default() Tolerances {
	return Tolerances{
		TotalFrac: 0.35,
		ShareAbs:  0.10, ShareMin: 0.05,
		PassFrac: 0.60, PassMinNs: 25,
		SpeedupFrac: 0.60,
		AllocFrac:   0.25, AllocAbs: 64,
		CountSlack: 1, IntervalFrac: 0.5,
		EffProcs: 4, EffFloor: 0.65,
	}
}

// Smoke relaxes everything for short CI runs (fewer steps, colder caches,
// shared machines): only gross regressions fail.
func Smoke() Tolerances {
	return Tolerances{
		TotalFrac: 1.0,
		ShareAbs:  0.25, ShareMin: 0.10,
		PassFrac:    0, // per-pass ns too noisy at smoke step counts
		SpeedupFrac: 0.35,
		AllocFrac:   1.0, AllocAbs: 256,
		CountSlack: 2, IntervalFrac: 1.0,
		EffProcs: 4, EffFloor: 0.5,
	}
}

// Gate compares fresh against base and returns one message per violated
// tolerance; empty means the gate passes.
func Gate(base, fresh *benchfmt.Output, tol Tolerances) []string {
	var fails []string
	failf := func(format string, args ...any) {
		fails = append(fails, fmt.Sprintf(format, args...))
	}

	for i := range base.Sizes {
		bs := &base.Sizes[i]
		fs := fresh.Size(bs.NSide)
		if fs == nil {
			failf("size %d³: missing from fresh run", bs.NSide)
			continue
		}
		// Stable mode order so failure output is diffable.
		modes := make([]string, 0, len(bs.Modes))
		for m := range bs.Modes {
			modes = append(modes, m)
		}
		sort.Strings(modes)
		for _, mode := range modes {
			bm := bs.Modes[mode]
			fm, ok := fs.Modes[mode]
			if !ok {
				failf("size %d³ %s: missing from fresh run", bs.NSide, mode)
				continue
			}
			gateMode(bs, fs, mode, bm, fm, tol, failf)
		}
		// The production path's margin over the reference is the tracked
		// win; losing it is a regression even if absolute times moved
		// together.
		if b, f := bs.SpeedupTotal, fs.SpeedupTotal; b > 0 && f < b*tol.SpeedupFrac {
			failf("size %d³: speedup_total %.2fx fell below %.2fx (baseline %.2fx × %.2f floor)",
				bs.NSide, f, b*tol.SpeedupFrac, b, tol.SpeedupFrac)
		}
		checkEfficiency(fresh, fs, tol, failf)
	}
	return fails
}

// checkEfficiency asserts the folded passes' parallel efficiency
// t1/(P·tP) at P = tol.EffProcs from the fresh run's GOMAXPROCS sweep.
// The check only runs when the fresh machine actually has EffProcs CPUs —
// GOMAXPROCS can exceed the core count, but the sweep then measures
// oversubscription, not scaling — and when the sweep includes both the
// 1-proc anchor and the target point.
func checkEfficiency(fresh *benchfmt.Output, fs *benchfmt.SizeResult,
	tol Tolerances, failf func(string, ...any)) {

	if tol.EffProcs <= 0 || tol.EffFloor <= 0 || fresh.NumCPU < tol.EffProcs {
		return
	}
	var t1, tp float64
	for i := range fs.Sweep {
		if fs.Sweep[i].Skipped {
			continue
		}
		switch fs.Sweep[i].Procs {
		case 1:
			t1 = benchfmt.FoldedNs(fs.Sweep[i].NsPerParticleStep)
		case tol.EffProcs:
			tp = benchfmt.FoldedNs(fs.Sweep[i].NsPerParticleStep)
		}
	}
	if t1 <= 0 || tp <= 0 {
		return
	}
	eff := t1 / (float64(tol.EffProcs) * tp)
	if eff < tol.EffFloor {
		failf("size %d³: folded-pass parallel efficiency %.2f at %d procs below the %.2f floor (t1 %.0f, tP %.0f ns/particle)",
			fs.NSide, eff, tol.EffProcs, tol.EffFloor, t1, tp)
	}
}

func gateMode(bs, fs *benchfmt.SizeResult, mode string, bm, fm benchfmt.ModeResult,
	tol Tolerances, failf func(string, ...any)) {

	id := fmt.Sprintf("size %d³ %s", bs.NSide, mode)
	bTotal := bm.NsPerParticleStep[benchfmt.TotalKey]
	fTotal := fm.NsPerParticleStep[benchfmt.TotalKey]
	if bTotal <= 0 || fTotal <= 0 {
		failf("%s: missing total ns/particle (base %g, fresh %g)", id, bTotal, fTotal)
		return
	}
	if fTotal > bTotal*(1+tol.TotalFrac) {
		failf("%s: total %.0f ns/particle exceeds %.0f (baseline %.0f +%.0f%%)",
			id, fTotal, bTotal*(1+tol.TotalFrac), bTotal, 100*tol.TotalFrac)
	}

	for _, pass := range benchfmt.PassNames {
		bNs, fNs := bm.NsPerParticleStep[pass], fm.NsPerParticleStep[pass]
		bShare, fShare := bNs/bTotal, fNs/fTotal
		if bShare >= tol.ShareMin && fShare-bShare > tol.ShareAbs {
			failf("%s: pass %s grew from %.0f%% to %.0f%% of step time (max drift %.0f points)",
				id, pass, 100*bShare, 100*fShare, 100*tol.ShareAbs)
		}
		if tol.PassFrac > 0 && bNs >= tol.PassMinNs && fNs > bNs*(1+tol.PassFrac) {
			failf("%s: pass %s %.0f ns/particle exceeds %.0f (baseline %.0f +%.0f%%)",
				id, pass, fNs, bNs*(1+tol.PassFrac), bNs, 100*tol.PassFrac)
		}
	}

	if bm.AllocsPerStep > 0 && fm.AllocsPerStep > bm.AllocsPerStep*(1+tol.AllocFrac)+tol.AllocAbs {
		failf("%s: %.0f allocs/step exceeds %.0f (baseline %.0f)",
			id, fm.AllocsPerStep, bm.AllocsPerStep*(1+tol.AllocFrac)+tol.AllocAbs, bm.AllocsPerStep)
	}

	if bm.Rebuilds > 0 || bm.Refreshes > 0 {
		if bs.Steps == fs.Steps && bs.Warmup == fs.Warmup {
			if d := abs(fm.Rebuilds - bm.Rebuilds); d > tol.CountSlack {
				failf("%s: rebuilds %d vs baseline %d (±%d allowed) — skin reuse broke",
					id, fm.Rebuilds, bm.Rebuilds, tol.CountSlack)
			}
			if d := abs(fm.Refreshes - bm.Refreshes); d > tol.CountSlack {
				failf("%s: refreshes %d vs baseline %d (±%d allowed)",
					id, fm.Refreshes, bm.Refreshes, tol.CountSlack)
			}
		} else if bm.RebuildIntervalSteps > 0 && fm.RebuildIntervalSteps > 0 {
			if math.Abs(fm.RebuildIntervalSteps-bm.RebuildIntervalSteps) > bm.RebuildIntervalSteps*tol.IntervalFrac {
				failf("%s: rebuild interval %.1f steps vs baseline %.1f (±%.0f%% allowed)",
					id, fm.RebuildIntervalSteps, bm.RebuildIntervalSteps, 100*tol.IntervalFrac)
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("perfgate", flag.ContinueOnError)
	baseline := fs.String("baseline", "BENCH_sph.json", "committed baseline benchmark file")
	smoke := fs.Bool("smoke", false, "relaxed CI tolerances for short runs")
	totalFrac := fs.Float64("tol-total", -1, "override: allowed relative total-time increase (e.g. 0.35)")
	shareAbs := fs.Float64("tol-share", -1, "override: allowed pass share-of-total drift (e.g. 0.10)")
	ckptFrac := fs.Float64("ckpt-overhead", 0, "instead of the baseline diff, self-measure checkpoint overhead: fail when a supervised run (autosave-every 10) costs more than this fraction over an autosave-off run")
	ckptReps := fs.Int("ckpt-reps", 3, "repetitions for the -ckpt-overhead measurement (min is taken)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *ckptFrac > 0 {
		return ckptGate(*ckptFrac, *ckptReps, out)
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: perfgate [-smoke] [-baseline BENCH_sph.json] fresh.json")
		return 2
	}

	tol := Default()
	if *smoke {
		tol = Smoke()
	}
	if *totalFrac >= 0 {
		tol.TotalFrac = *totalFrac
	}
	if *shareAbs >= 0 {
		tol.ShareAbs = *shareAbs
	}

	base, err := benchfmt.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		return 1
	}
	fresh, err := benchfmt.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfgate:", err)
		return 1
	}

	fails := Gate(base, fresh, tol)
	if len(fails) > 0 {
		fmt.Fprintf(out, "perfgate: FAIL — %d regression(s) vs %s:\n", len(fails), *baseline)
		for _, f := range fails {
			fmt.Fprintln(out, "  ", f)
		}
		fmt.Fprintln(out, "if intentional, refresh the baseline: go run ./cmd/sphbench -sizes 20,30 -steps 4 -out BENCH_sph.json")
		return 1
	}
	fmt.Fprintf(out, "perfgate: OK — %d size(s) within tolerance of %s\n", len(base.Sizes), *baseline)
	return 0
}
