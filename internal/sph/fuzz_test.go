package sph_test

import (
	"bytes"
	"runtime"
	"testing"

	"sphenergy/internal/gravity"
	"sphenergy/internal/initcond"
	"sphenergy/internal/sph"
)

// FuzzPipelineSequence fuzzes every buffer the production path reuses — the
// pooled chunks with their survivors and count accumulators, the candidate
// shells, the pair list and its kernel cache (kept across reorders), the
// scatter accumulators, the grid — across sequences in which the shape of
// the work changes under them. The first four bytes pick the
// problem (Turbulence or gravity-coupled Evrard, lattice side), the ngmax
// cap (default, or low enough to truncate some or all rows), the skin
// (including none) and GOMAXPROCS; every later byte is one operation on a
// long-lived "warm" state: a step, a forced SFC reorder, or a change of
// GOMAXPROCS (32 oversubscribes the box).
//
// Before every step the warm state is checkpointed — usually in the middle
// of a skin interval — and read back twice into fresh states, one on the
// production path and one on the closure walk. After the step the warm
// state must equal the fresh production state bit for bit (nothing stale
// leaked in from earlier steps; a restart replays the run), and the walk
// within 1e-9 with identical neighbor counts. A step that truncated rows
// at ngmax is held to the walk on counts and smoothing lengths only, the
// walk having no cap.
func FuzzPipelineSequence(f *testing.F) {
	f.Add([]byte{5, 0, 2, 1, 0, 0, 0, 2, 0, 0})          // turbulence 13³, 2 chunks: steps, reorder, steps
	f.Add([]byte{7, 2, 1, 2, 0, 0, 3, 3, 0, 0, 3, 0, 0}) // turbulence 17³, all rows capped, 3 chunks, then 32 procs, then 1
	f.Add([]byte{4, 1, 0, 0, 0, 0, 2, 0})                // evrard 13³, some rows capped, no skin, serial
	f.Add([]byte{6, 0, 3, 3, 0, 0, 0, 3, 1, 0, 2, 0})    // evrard 17³, wide skin, 32 procs then 2, reorder
	f.Add([]byte{1, 2, 0, 1, 0, 2, 0, 0})                // turbulence 6³: single chunk, every row capped
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		procs := func(b byte) { runtime.GOMAXPROCS([]int{1, 2, 4, 32}[b%4]) }

		side := []int{6, 10, 13, 17}[data[0]/2%4]
		var p *sph.Particles
		var opt sph.Options
		var extra func(*sph.Particles)
		if data[0]%2 == 0 {
			p, opt = initcond.Evrard(initcond.DefaultEvrard(side))
			theta, eps, g := opt.GravTheta, opt.GravEps, opt.GravG
			extra = func(p *sph.Particles) {
				gravity.Build(p.X, p.Y, p.Z, p.M, theta, eps, g).AccelerationsInto(p.AX, p.AY, p.AZ, nil)
			}
		} else {
			p, opt = initcond.Turbulence(initcond.DefaultTurbulence(side))
		}
		opt.NgTarget = 32
		opt.NgMax = []int{0, 24, 12}[data[1]%3]
		opt.Skin = []float64{0, 0.1, 0.3, 0.6}[data[2]%4]
		opt.ReorderEvery = 0 // reorders happen when the input says so
		procs(data[3])
		walkOpt := opt
		walkOpt.ClosureWalk = true

		warm := sph.NewState(p, opt)
		ops := data[4:]
		if len(ops) > 10 {
			ops = ops[:10]
		}
		for k := 0; k < len(ops); k++ {
			switch ops[k] % 4 {
			case 2:
				warm.ReorderBySFC()
				continue
			case 3:
				if k++; k < len(ops) {
					procs(ops[k])
				}
				continue
			}
			var ckpt bytes.Buffer
			if err := warm.WriteCheckpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			fresh, err := sph.ReadCheckpoint(bytes.NewReader(ckpt.Bytes()), opt)
			if err != nil {
				t.Fatal(err)
			}
			walk, err := sph.ReadCheckpoint(bytes.NewReader(ckpt.Bytes()), walkOpt)
			if err != nil {
				t.Fatal(err)
			}
			rebuilds := warm.NbrStats.Rebuilds
			warm.RunStep(extra)
			fresh.RunStep(extra)
			walk.RunStep(extra)

			if warm.Dt != fresh.Dt || warm.Step != fresh.Step || warm.Time != fresh.Time {
				t.Fatalf("step %d: clocks diverged from the restored state: dt %g/%g", warm.Step, warm.Dt, fresh.Dt)
			}
			if warm.NbrStats.Rebuilds-rebuilds != fresh.NbrStats.Rebuilds || warm.List.Overflow != fresh.List.Overflow {
				t.Fatalf("step %d: warm state rebuilt %d times and truncated %d rows, the restored one %d and %d", warm.Step,
					warm.NbrStats.Rebuilds-rebuilds, warm.List.Overflow, fresh.NbrStats.Rebuilds, fresh.List.Overflow)
			}
			if warm.NbrStats.WalkFallbacks != 0 || fresh.NbrStats.WalkFallbacks != 0 {
				t.Fatalf("step %d: passes walked the grid: %d warm, %d restored", warm.Step, warm.NbrStats.WalkFallbacks, fresh.NbrStats.WalkFallbacks)
			}
			if opt.NgMax == 0 && warm.List.Overflow != 0 {
				t.Fatalf("step %d: %d rows overflowed the default ngmax", warm.Step, warm.List.Overflow)
			}
			fields, restored, walked := stateFields(warm.P), stateFields(fresh.P), stateFields(walk.P)
			for name, f := range fields {
				g := restored[name]
				for i := range f {
					if f[i] != g[i] {
						t.Fatalf("step %d (procs %d): %s[%d] = %.17g warm, %.17g restored",
							warm.Step, runtime.GOMAXPROCS(0), name, i, f[i], g[i])
					}
				}
			}
			for i, nc := range warm.P.NC {
				if nc != fresh.P.NC[i] || nc != walk.P.NC[i] {
					t.Fatalf("step %d: NC[%d] = %d warm, %d restored, %d walk", warm.Step, i, nc, fresh.P.NC[i], walk.P.NC[i])
				}
			}
			if warm.List.Overflow > 0 {
				fields = map[string][]float64{"h": warm.P.H}
			}
			for name, f := range fields {
				if dev := maxRelDev(f, walked[name]); !(dev <= 1e-9) {
					t.Fatalf("step %d (procs %d): %s deviates from the closure walk by %.3g",
						warm.Step, runtime.GOMAXPROCS(0), name, dev)
				}
			}
		}
	})
}

// stateFields are the fields a step writes, by name.
func stateFields(p *sph.Particles) map[string][]float64 {
	return map[string][]float64{
		"x": p.X, "y": p.Y, "z": p.Z, "vx": p.VX, "vy": p.VY, "vz": p.VZ,
		"ax": p.AX, "ay": p.AY, "az": p.AZ, "h": p.H, "rho": p.Rho, "u": p.U,
		"du": p.DU, "p": p.P, "c": p.C, "gradh": p.Gradh, "divv": p.DivV,
		"curlv": p.CurlV, "alpha": p.Alpha,
	}
}
