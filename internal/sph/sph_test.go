package sph

import (
	"math"
	"testing"

	"sphenergy/internal/kernel"
	"sphenergy/internal/sfc"
)

// latticeState builds a uniform periodic lattice of n³ unit-density
// particles ready for pipeline calls.
func latticeState(n int, t testing.TB) *State {
	t.Helper()
	box := sfc.NewPeriodicCube(0, 1)
	N := n * n * n
	p := NewParticles(N)
	d := 1.0 / float64(n)
	idx := 0
	for iz := 0; iz < n; iz++ {
		for iy := 0; iy < n; iy++ {
			for ix := 0; ix < n; ix++ {
				p.X[idx] = (float64(ix) + 0.5) * d
				p.Y[idx] = (float64(iy) + 0.5) * d
				p.Z[idx] = (float64(iz) + 0.5) * d
				idx++
			}
		}
	}
	h0 := 1.2 * math.Cbrt(3.0/(4*math.Pi)*32) / (2 * float64(n))
	for i := 0; i < N; i++ {
		p.M[i] = 1.0 / float64(N)
		p.H[i] = h0
		p.U[i] = 1.0
		p.Alpha[i] = 0.1
		p.Rho[i] = 1
	}
	opt := DefaultOptions(box)
	opt.NgTarget = 32
	st := NewState(p, opt)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return st
}

// runDensityPipeline executes the pipeline up to the density-like passes.
func runDensityPipeline(st *State) {
	st.FindNeighbors()
	st.XMass()
	st.NormalizationGradh()
	st.EquationOfState()
}

func TestDensityOnUniformLattice(t *testing.T) {
	st := latticeState(10, t)
	runDensityPipeline(st)
	p := st.P
	for i := 0; i < p.N; i++ {
		if math.Abs(p.Rho[i]-1) > 0.08 {
			t.Fatalf("particle %d: density %v, want ~1", i, p.Rho[i])
		}
	}
}

func TestNeighborCountsNearTarget(t *testing.T) {
	st := latticeState(10, t)
	// A few smoothing-length iterations converge to the target count.
	for it := 0; it < 6; it++ {
		st.FindNeighbors()
	}
	p := st.P
	var sum float64
	for i := 0; i < p.N; i++ {
		sum += float64(p.NC[i])
	}
	avg := sum / float64(p.N)
	if avg < 20 || avg > 48 {
		t.Errorf("average neighbor count %v, want near 32", avg)
	}
}

func TestGradhNearOneOnUniformField(t *testing.T) {
	st := latticeState(10, t)
	runDensityPipeline(st)
	p := st.P
	for i := 0; i < p.N; i++ {
		if p.Gradh[i] < 0.5 || p.Gradh[i] > 1.5 {
			t.Fatalf("particle %d: gradh %v far from 1", i, p.Gradh[i])
		}
	}
}

func TestMomentumConservation(t *testing.T) {
	st := latticeState(8, t)
	// Jitter positions and perturb velocities so that real pressure and
	// viscosity forces arise.
	for i := 0; i < st.P.N; i++ {
		st.P.X[i] += 0.02 * math.Sin(7*float64(i))
		st.P.Y[i] += 0.02 * math.Cos(13*float64(i))
		st.P.X[i], st.P.Y[i], st.P.Z[i] = st.Opt.Box.Wrap(st.P.X[i], st.P.Y[i], st.P.Z[i])
		st.P.VX[i] = 0.1 * math.Sin(2*math.Pi*st.P.Y[i])
		st.P.VZ[i] = 0.05 * math.Cos(2*math.Pi*st.P.X[i])
		st.P.U[i] = 1 + 0.2*math.Sin(2*math.Pi*st.P.X[i])
	}
	runDensityPipeline(st)
	st.IADVelocityDivCurl()
	st.AVSwitches(1e-3)
	st.MomentumEnergy()
	p := st.P
	var fx, fy, fz, fscale float64
	for i := 0; i < p.N; i++ {
		fx += p.M[i] * p.AX[i]
		fy += p.M[i] * p.AY[i]
		fz += p.M[i] * p.AZ[i]
		fscale += p.M[i] * (math.Abs(p.AX[i]) + math.Abs(p.AY[i]) + math.Abs(p.AZ[i]))
	}
	if fscale == 0 {
		t.Skip("no forces generated")
	}
	for d, f := range map[string]float64{"x": fx, "y": fy, "z": fz} {
		if math.Abs(f)/fscale > 1e-3 {
			t.Errorf("net force in %s: %v (scale %v) — momentum not conserved", d, f, fscale)
		}
	}
}

func TestUniformFieldHasSmallDivergence(t *testing.T) {
	st := latticeState(8, t)
	for i := 0; i < st.P.N; i++ {
		st.P.VX[i], st.P.VY[i], st.P.VZ[i] = 0.5, -0.2, 0.1
	}
	runDensityPipeline(st)
	st.IADVelocityDivCurl()
	p := st.P
	for i := 0; i < p.N; i++ {
		if math.Abs(p.DivV[i]) > 0.05 {
			t.Fatalf("uniform flow: divv[%d] = %v, want ~0", i, p.DivV[i])
		}
		if p.CurlV[i] > 0.05 {
			t.Fatalf("uniform flow: curlv[%d] = %v, want ~0", i, p.CurlV[i])
		}
	}
}

func TestIADDetectsLinearDivergence(t *testing.T) {
	st := latticeState(8, t)
	// Hubble-like flow v = 0.3 (x - 0.5) has divv = 0.3 (periodic box
	// wrap-around pollutes edge particles; check interior ones).
	for i := 0; i < st.P.N; i++ {
		st.P.VX[i] = 0.3 * (st.P.X[i] - 0.5)
	}
	runDensityPipeline(st)
	st.IADVelocityDivCurl()
	p := st.P
	checked := 0
	for i := 0; i < p.N; i++ {
		if p.X[i] < 0.3 || p.X[i] > 0.7 {
			continue
		}
		checked++
		if math.Abs(p.DivV[i]-0.3) > 0.05 {
			t.Fatalf("interior particle %d: divv = %v, want 0.3", i, p.DivV[i])
		}
	}
	if checked == 0 {
		t.Fatal("no interior particles checked")
	}
}

func TestInvertSym3(t *testing.T) {
	// Invert a known SPD matrix and verify A * A^{-1} = I.
	xx, xy, xz, yy, yz, zz := 4.0, 1.0, 0.5, 3.0, 0.2, 5.0
	c11, c12, c13, c22, c23, c33, ok := invertSym3(xx, xy, xz, yy, yz, zz)
	if !ok {
		t.Fatal("SPD matrix reported singular")
	}
	// Row 1 of A times columns of C.
	i11 := xx*c11 + xy*c12 + xz*c13
	i12 := xx*c12 + xy*c22 + xz*c23
	i13 := xx*c13 + xy*c23 + xz*c33
	if math.Abs(i11-1) > 1e-12 || math.Abs(i12) > 1e-12 || math.Abs(i13) > 1e-12 {
		t.Errorf("A*Ainv row 1 = (%v, %v, %v)", i11, i12, i13)
	}
}

func TestInvertSym3Singular(t *testing.T) {
	if _, _, _, _, _, _, ok := invertSym3(1, 1, 1, 1, 1, 1); ok {
		t.Error("rank-1 matrix reported invertible")
	}
	if _, _, _, _, _, _, ok := invertSym3(0, 0, 0, 0, 0, 0); ok {
		t.Error("zero matrix reported invertible")
	}
}

func TestTimestepPositiveAndCFL(t *testing.T) {
	st := latticeState(8, t)
	runDensityPipeline(st)
	st.IADVelocityDivCurl()
	st.AVSwitches(1e-3)
	st.MomentumEnergy()
	dt := st.Timestep()
	if dt <= 0 {
		t.Fatalf("dt = %v", dt)
	}
	// dt must respect the sound-crossing bound for every particle.
	p := st.P
	for i := 0; i < p.N; i++ {
		bound := st.Opt.CFL * p.H[i] / (p.C[i] * (1 + 1.2*p.Alpha[i]))
		if dt > bound*1.0001 {
			t.Fatalf("dt %v exceeds CFL bound %v of particle %d", dt, bound, i)
		}
	}
}

func TestTimestepGrowthBounded(t *testing.T) {
	st := latticeState(6, t)
	runDensityPipeline(st)
	st.MomentumEnergy()
	first := st.Timestep()
	second := st.Timestep()
	if second > first*st.Opt.MaxDtGrowth*1.0001 {
		t.Errorf("dt grew from %v to %v, exceeding growth bound", first, second)
	}
}

func TestUpdateQuantitiesWrapsPositions(t *testing.T) {
	st := latticeState(4, t)
	p := st.P
	p.X[0] = 0.999
	p.VX[0] = 10 // will cross the boundary
	st.UpdateQuantities(0.01)
	if p.X[0] < 0 || p.X[0] >= 1 {
		t.Errorf("position not wrapped: %v", p.X[0])
	}
	if st.Step != 1 {
		t.Errorf("step counter = %d", st.Step)
	}
}

func TestInternalEnergyFloor(t *testing.T) {
	st := latticeState(4, t)
	p := st.P
	p.U[0] = 1e-13
	p.DU[0] = -1
	st.UpdateQuantities(0.1)
	if p.U[0] <= 0 {
		t.Errorf("internal energy went non-positive: %v", p.U[0])
	}
}

func TestAVSwitchesRiseOnCompressionDecayOtherwise(t *testing.T) {
	st := latticeState(6, t)
	runDensityPipeline(st)
	p := st.P
	// Compression on particle 0, quiescence on particle 1.
	p.DivV[0] = -10
	p.DivV[1] = 0
	p.Alpha[0], p.Alpha[1] = 0.3, 0.8
	st.AVSwitches(1e-3)
	if p.Alpha[0] <= 0.3 {
		t.Errorf("alpha did not rise under compression: %v", p.Alpha[0])
	}
	if p.Alpha[1] >= 0.8 {
		t.Errorf("alpha did not decay in quiescence: %v", p.Alpha[1])
	}
	if p.Alpha[0] > st.Opt.AlphaMax || p.Alpha[1] < st.Opt.AlphaMin {
		t.Error("alpha left its configured bounds")
	}
}

func TestReorderPermutesConsistently(t *testing.T) {
	st := latticeState(4, t)
	p := st.P
	x0, m0 := p.X[5], p.M[5]
	perm := make([]int, p.N)
	for i := range perm {
		perm[i] = (i + 5) % p.N
	}
	p.Reorder(perm)
	if p.X[0] != x0 || p.M[0] != m0 {
		t.Error("reorder did not move fields consistently")
	}
}

func TestValidateCatchesBadState(t *testing.T) {
	p := NewParticles(2)
	p.M[0], p.M[1] = 1, 1
	p.H[0], p.H[1] = 0.1, 0.1
	if err := p.Validate(); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	p.H[1] = 0
	if p.Validate() == nil {
		t.Error("zero smoothing length accepted")
	}
	p.H[1] = 0.1
	p.M[0] = -1
	if p.Validate() == nil {
		t.Error("negative mass accepted")
	}
	p.M[0] = 1
	p.X[0] = math.NaN()
	if p.Validate() == nil {
		t.Error("NaN position accepted")
	}
}

func TestEnergiesAccounting(t *testing.T) {
	st := latticeState(4, t)
	p := st.P
	for i := 0; i < p.N; i++ {
		p.VX[i] = 2
	}
	e := st.ComputeEnergies(nil)
	if math.Abs(e.Mass-1) > 1e-12 {
		t.Errorf("total mass %v", e.Mass)
	}
	if math.Abs(e.Kinetic-0.5*1*4) > 1e-12 {
		t.Errorf("kinetic %v, want 2", e.Kinetic)
	}
	if math.Abs(e.MomX-2) > 1e-12 {
		t.Errorf("momentum %v, want 2", e.MomX)
	}
	if math.Abs(e.Internal-1) > 1e-12 {
		t.Errorf("internal %v, want 1", e.Internal)
	}
}

func TestMachRMS(t *testing.T) {
	st := latticeState(4, t)
	p := st.P
	runDensityPipeline(st) // sets sound speed
	for i := 0; i < p.N; i++ {
		p.VX[i] = 0.3 * p.C[i]
	}
	m := st.MachRMS()
	if math.Abs(m-0.3) > 1e-6 {
		t.Errorf("MachRMS = %v, want 0.3", m)
	}
}

func TestVolumeElementsExponent(t *testing.T) {
	st := latticeState(6, t)
	st.Opt.VEExponent = 0.5
	st.Opt.Kernel = kernel.NewTable(kernel.WendlandC2{}, 2000)
	runDensityPipeline(st)
	p := st.P
	for i := 0; i < p.N; i++ {
		if p.XM[i] <= 0 {
			t.Fatalf("volume element mass %v", p.XM[i])
		}
		if math.Abs(p.Rho[i]-1) > 0.15 {
			t.Fatalf("VE density %v far from 1", p.Rho[i])
		}
	}
}

func TestStepHelperMatchesManualPipeline(t *testing.T) {
	manual := latticeState(6, t)
	helper := latticeState(6, t)
	for i := 0; i < 3; i++ {
		manual.FindNeighbors()
		manual.XMass()
		manual.NormalizationGradh()
		manual.EquationOfState()
		manual.IADVelocityDivCurl()
		manual.AVSwitches(manual.Dt)
		manual.MomentumEnergy()
		manual.UpdateQuantities(manual.Timestep())

		helper.RunStep(nil)
	}
	if manual.Time != helper.Time || manual.Step != helper.Step {
		t.Errorf("clocks diverged: %v/%d vs %v/%d", manual.Time, manual.Step, helper.Time, helper.Step)
	}
	for i := 0; i < manual.P.N; i++ {
		if manual.P.X[i] != helper.P.X[i] || manual.P.U[i] != helper.P.U[i] {
			t.Fatalf("particle %d diverged between manual pipeline and Step", i)
		}
	}
}

func TestStepExtraAccel(t *testing.T) {
	st := latticeState(4, t)
	called := false
	st.RunStep(func(p *Particles) {
		called = true
		for i := 0; i < p.N; i++ {
			p.AX[i] += 1 // uniform push
		}
	})
	if !called {
		t.Fatal("extraAccel not invoked")
	}
	var vx float64
	for i := 0; i < st.P.N; i++ {
		vx += st.P.VX[i]
	}
	if vx <= 0 {
		t.Error("extra acceleration did not reach the integrator")
	}
}
