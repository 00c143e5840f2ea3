package main

import (
	"bytes"
	"fmt"
	"math"
	"time"

	"sphenergy/internal/gravity"
	"sphenergy/internal/initcond"
	"sphenergy/internal/neighbors"
	"sphenergy/internal/sph"
)

// Sizes of the engine workloads. The warm-up covers the first neighbour
// build and the cold allocations; the measured window covers at least
// five rebuild cycles on both workloads and the SFC reorder at step 32.
// The verification phase compares the two paths on a smaller box of the same
// kind: at the measured size the closure walk alone took a quarter of a
// driver run.
const (
	engineSide   = 30
	oracleSide   = 20
	engineWarm   = 4
	engineSteps  = 32
	smokeSide    = 10
	smokeWarm    = 2
	smokeSteps   = 3
	parWarm      = 2
	parSteps     = 12
	oracleSteps  = 3
	resumeSteps  = 2
	oracleTol    = 1e-9
	massTol      = 1e-12
	momentumTol  = 1e-10
	driftLimit   = 0.05
	pairBytes    = 36 // computed bytes streamed per directed neighbour entry
	gridRepeats  = 10
	kernelCalls  = 1_000_000
	searchFactor = 2 * 1.3 * 1.3 // engine's candidate radius over max h: support 2h, growth cap, skin
)

// sink keeps micro-measurement results alive so the loops are not removed.
var sink float64

// sim is one particle state with the self-gravity closure it steps with.
type sim struct {
	st    *sph.State
	pot   []float64 // per-particle potential of the last gravity pass; nil without gravity
	extra func(*sph.Particles)
}

func (s *sim) step() float64 { return s.st.RunStep(s.extra) }

// run takes n steps and returns the time step of each.
func (s *sim) run(n int) []float64 {
	dts := make([]float64, n)
	for i := range dts {
		dts[i] = s.step()
	}
	return dts
}

// engine is the turb30 / evrard30 workload: the real SPH engine stepped
// through its public RunStep, on its default path.
type engine struct {
	cfg    repConfig
	rec    *recorder
	evrard bool

	sim
	opt      sph.Options // as the generator returned them
	icMs     float64
	e0       sph.Energies
	stats0   sph.NeighborStats // at the start of the window
	before   sph.NeighborStats // before the current op
	stepNo   int
	dt       float64
	kind     string // what the last FindNeighbors did: rebuild or refresh
	gravSpan []int  // gravity spans of the current step, waiting for their pass span
	visits   float64
}

func (e *engine) sizes() (side, warm, steps int) {
	switch {
	case e.cfg.Smoke:
		return smokeSide, smokeWarm, smokeSteps
	case e.cfg.Mode == modePar:
		return engineSide, parWarm, parSteps
	case e.cfg.Mode == modeVerify:
		return oracleSide, 0, oracleSteps
	}
	return engineSide, engineWarm, engineSteps
}

// initial generates the workload's initial conditions from the seed, with
// the options exactly as the generator returns them.
func (e *engine) initial() (*sph.Particles, sph.Options) {
	side, _, _ := e.sizes()
	if e.evrard {
		spec := initcond.DefaultEvrard(side)
		spec.Seed = e.cfg.Seed
		return initcond.Evrard(spec)
	}
	spec := initcond.DefaultTurbulence(side)
	spec.Seed = e.cfg.Seed
	return initcond.Turbulence(spec)
}

// newSim wraps a state; on evrard30 it adds Barnes-Hut self-gravity as the
// step's extra acceleration, with spans around the two direct calls.
func (e *engine) newSim(st *sph.State, opt sph.Options) sim {
	s := sim{st: st}
	if !e.evrard {
		return s
	}
	s.pot = make([]float64, st.P.N)
	pot := s.pot
	s.extra = func(p *sph.Particles) {
		b := e.rec.begin("gravity.build", "gravity")
		tree := gravity.Build(p.X, p.Y, p.Z, p.M, opt.GravTheta, opt.GravEps, opt.GravG)
		e.rec.end(b)
		a := e.rec.begin("gravity.accel", "gravity")
		tree.AccelerationsInto(p.AX, p.AY, p.AZ, pot)
		e.rec.end(a)
		if e.rec != nil {
			e.gravSpan = append(e.gravSpan, b, a)
		}
	}
	return s
}

func (e *engine) setup() error {
	e.rec.setOp(-1) // warm-up spans belong to no measured op
	t0 := time.Now()
	p, opt := e.initial()
	e.icMs = time.Since(t0).Seconds() * 1e3
	e.opt = opt
	if e.rec != nil {
		opt.NeighborEvent = func(step int, kind string) {
			e.kind = "rebuild"
			if kind == "refresh" {
				e.kind = "refresh"
			}
		}
		opt.PassHook = func(pass string, seconds float64) {
			name := pass
			if pass == sph.PassFindNeighbors {
				name += "." + e.kind
			}
			id := e.rec.add(name, "sph", seconds)
			if pass == sph.PassGravity {
				for _, k := range e.gravSpan {
					e.rec.spans[k].Parent = id
				}
				e.gravSpan = e.gravSpan[:0]
			}
		}
	}
	e.sim = e.newSim(sph.NewState(p, opt), opt)
	_, warm, _ := e.sizes()
	e.run(warm)
	e.e0 = e.st.ComputeEnergies(e.pot)
	e.stats0 = e.st.NbrStats
	return nil
}

func (e *engine) probed() bool { return true }

func (e *engine) ops() int {
	_, _, steps := e.sizes()
	return steps
}

func (e *engine) runOp(int) error {
	e.before, e.stepNo = e.st.NbrStats, e.st.Step
	id := e.rec.begin("step", "sph")
	e.dt = e.step()
	e.rec.end(id)
	return nil
}

func (e *engine) checkOp(int) error {
	st := e.st
	if !finite(e.dt) || e.dt <= 0 {
		return fmt.Errorf("dt = %g", e.dt)
	}
	if st.Step != e.stepNo+1 {
		return fmt.Errorf("step counter went %d -> %d", e.stepNo, st.Step)
	}
	did := st.NbrStats.Rebuilds + st.NbrStats.Refreshes - e.before.Rebuilds - e.before.Refreshes
	if did != 1 {
		return fmt.Errorf("rebuilds+refreshes advanced by %d, want 1", did)
	}
	p := st.P
	for name, f := range map[string][]float64{"rho": p.Rho, "u": p.U, "h": p.H,
		"x": p.X, "y": p.Y, "z": p.Z, "vx": p.VX, "vy": p.VY, "vz": p.VZ,
		"ax": p.AX, "ay": p.AY, "az": p.AZ} {
		for i, v := range f {
			if !finite(v) {
				return fmt.Errorf("%s[%d] = %g", name, i, v)
			}
		}
	}
	for _, nc := range p.NC {
		e.visits += float64(nc)
	}
	return nil
}

func (e *engine) finish(res *repResult) {
	e1 := e.st.ComputeEnergies(e.pot)
	drift := math.Abs(e1.Total()-e.e0.Total()) / math.Abs(e.e0.Total())
	if !(drift <= driftLimit) {
		res.fail("energy drift %g exceeds %g", drift, driftLimit)
	}
	if d := math.Abs(e1.Mass-e.e0.Mass) / e.e0.Mass; !(d <= massTol) {
		res.fail("total mass changed by %g relative", d)
	}
	// Tree gravity is not pairwise antisymmetric, so only the gravity-free
	// workload conserves momentum to rounding.
	if !e.evrard {
		for _, m := range []float64{e1.MomX, e1.MomY, e1.MomZ} {
			if !(math.Abs(m) <= momentumTol) {
				res.fail("momentum component %g exceeds %g", m, momentumTol)
			}
		}
	}
	res.ResultErrPct = 100 * drift
	now := e.st.NbrStats
	res.exact("sph.energy_drift_rel", drift)
	res.exact("sph.rebuilds", now.Rebuilds-e.stats0.Rebuilds)
	res.exact("sph.refreshes", now.Refreshes-e.stats0.Refreshes)
	res.exact("sph.pair_visits", e.visits)
}

func (e *engine) layers(res *repResult) {
	steps := e.ops()
	var spans []span
	for _, s := range e.rec.spans {
		if s.Op >= 0 {
			spans = append(spans, s)
		}
	}
	now := e.st.NbrStats
	rebuilds := now.Rebuilds - e.stats0.Rebuilds
	refreshes := now.Refreshes - e.stats0.Refreshes

	res.layer("initcond.generate_ms", e.icMs)
	pairMs := 0.0
	for _, pass := range sph.PassNames {
		if pass == sph.PassFindNeighbors {
			continue
		}
		ms := meanMs(spans, steps, named(pass))
		res.layer("sph."+pass+"_ms", ms)
		switch pass {
		case sph.PassXMass, sph.PassGradh, sph.PassIAD, sph.PassMomentumEnergy:
			pairMs += ms
		}
	}
	rebuild, refresh := named(sph.PassFindNeighbors+".rebuild"), named(sph.PassFindNeighbors+".refresh")
	res.layer("sph.rebuild_ms", meanMs(spans, rebuilds, rebuild))
	res.layer("sph.refresh_ms", meanMs(spans, refreshes, refresh))
	res.layer("sph.find_neighbors_ms", meanMs(spans, steps, func(s span) bool { return rebuild(s) || refresh(s) }))

	self := selfNs(e.rec.spans)
	selfMs := 0.0
	for i, s := range e.rec.spans {
		if s.Op >= 0 && s.Name == "step" {
			selfMs += float64(self[i]) / 1e6
		}
	}
	res.layer("sph.step_self_ms", selfMs/float64(steps))

	visits := e.visits / float64(steps)
	res.layer("sph.pair_visits_per_step", visits)
	res.layer("sph.pair_bytes_per_step", pairBytes*visits)
	res.layer("sph.neighbors_per_particle", visits/float64(e.st.P.N))
	res.layer("sph.ns_per_pair", pairMs*1e6/visits)
	res.layer("sph.rebuilds", float64(rebuilds))
	res.layer("sph.refreshes", float64(refreshes))
	if rebuilds > 0 {
		res.layer("sph.rebuild_interval_steps", float64(steps)/float64(rebuilds))
	}
	res.layer("sph.rebuilds_drift", float64(now.RebuildDrift-e.stats0.RebuildDrift))
	res.layer("sph.rebuilds_overflow", float64(now.RebuildOverflow-e.stats0.RebuildOverflow))
	res.layer("sph.energy_drift_rel", res.ResultErrPct/100)

	if e.evrard {
		build := meanMs(spans, steps, named("gravity.build"))
		accel := meanMs(spans, steps, named("gravity.accel"))
		res.layer("gravity.build_ms", build)
		res.layer("gravity.accel_ms", accel)
		res.layer("gravity.ns_per_particle", (build+accel)*1e6/float64(e.st.P.N))
	}
	e.micro(res)
}

// micro times direct calls into neighbors and kernel on the final particle
// snapshot, after the workload.
func (e *engine) micro(res *repResult) {
	p, opt := e.st.P, e.opt
	maxH := 0.0
	for _, h := range p.H {
		maxH = math.Max(maxH, h)
	}
	radius := searchFactor * maxH
	grid := neighbors.BuildGridInto(nil, opt.Box, p.X, p.Y, p.Z, radius)
	t0 := time.Now()
	for i := 0; i < gridRepeats; i++ {
		grid = neighbors.BuildGridInto(grid, opt.Box, p.X, p.Y, p.Z, radius)
	}
	res.layer("neighbors.grid_build_ms", time.Since(t0).Seconds()*1e3/gridRepeats)

	t0 = time.Now()
	count := 0
	for i := 0; i < p.N; i++ {
		count += grid.CountNeighbors(i, 2*p.H[i])
	}
	res.layer("neighbors.count_ns_per_particle", time.Since(t0).Seconds()*1e9/float64(p.N))
	sink += float64(count)

	k := opt.Kernel
	step := k.SupportRadius() / kernelCalls
	t0 = time.Now()
	for i := 0; i < kernelCalls; i++ {
		sink += k.W(float64(i)*step, 1)
	}
	res.layer("kernel.w_ns", time.Since(t0).Seconds()*1e9/kernelCalls)
	t0 = time.Now()
	for i := 0; i < kernelCalls; i++ {
		sink += k.DW(float64(i)*step, 1)
	}
	res.layer("kernel.dw_ns", time.Since(t0).Seconds()*1e9/kernelCalls)
}

// verify is the engine's verification phase: the default path against the
// closure-walk reference from identical initial conditions, then a
// checkpoint round trip that must continue bit-identically.
func (e *engine) verify(res *repResult) {
	pa, oa := e.initial()
	pb, ob := e.initial()
	ob.ClosureWalk = true
	a, b := e.newSim(sph.NewState(pa, oa), oa), e.newSim(sph.NewState(pb, ob), ob)
	a.run(oracleSteps)
	b.run(oracleSteps)
	worst, walked := 0.0, oracleFields(pb)
	for name, f := range oracleFields(pa) {
		if d := maxRelDev(f, walked[name]); d > worst || !finite(d) {
			worst = d
		}
	}
	res.layer("sph.oracle_max_rel_err", worst)
	if !(worst <= oracleTol) {
		res.fail("default path deviates from the closure walk by %g (limit %g)", worst, oracleTol)
	}
	for i := range pa.NC {
		if pa.NC[i] != pb.NC[i] {
			res.fail("neighbour count of particle %d: %d on the default path, %d on the closure walk", i, pa.NC[i], pb.NC[i])
			break
		}
	}

	var buf bytes.Buffer
	t0 := time.Now()
	if err := a.st.WriteCheckpoint(&buf); err != nil {
		res.fail("checkpoint write: %v", err)
		return
	}
	res.layer("sph.checkpoint_write_ms", time.Since(t0).Seconds()*1e3)
	res.layer("sph.checkpoint_mb", float64(buf.Len())/1e6)
	t0 = time.Now()
	restored, err := sph.ReadCheckpoint(bytes.NewReader(buf.Bytes()), oa)
	if err != nil {
		res.fail("checkpoint read: %v", err)
		return
	}
	res.layer("sph.checkpoint_read_ms", time.Since(t0).Seconds()*1e3)
	c := e.newSim(restored, oa)
	dtA, dtC := a.run(resumeSteps), c.run(resumeSteps)
	for i := range dtA {
		if dtA[i] != dtC[i] || a.st.Step != c.st.Step {
			res.fail("restored state's clock diverged: step %d/%d, dt %g/%g", a.st.Step, c.st.Step, dtA[i], dtC[i])
			break
		}
	}
	resumed := oracleFields(c.st.P)
	for name, f := range oracleFields(a.st.P) {
		g := resumed[name]
		for i := range f {
			if f[i] != g[i] {
				res.fail("restored state diverged after %d steps: %s[%d] %g vs %g", resumeSteps, name, i, f[i], g[i])
				return
			}
		}
	}
}

// oracleFields are the fields the reference comparison covers.
func oracleFields(p *sph.Particles) map[string][]float64 {
	return map[string][]float64{"rho": p.Rho, "u": p.U, "h": p.H,
		"ax": p.AX, "ay": p.AY, "az": p.AZ, "x": p.X, "vx": p.VX}
}

// maxRelDev is the max-norm deviation of b from a, relative to a's max norm.
func maxRelDev(a, b []float64) float64 {
	dev, norm := 0.0, 0.0
	for i := range a {
		d := math.Abs(a[i] - b[i])
		if d > dev || !finite(d) {
			dev = d
		}
		norm = math.Max(norm, math.Abs(a[i]))
	}
	if norm == 0 {
		return dev
	}
	return dev / norm
}
