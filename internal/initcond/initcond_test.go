package initcond

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"sphenergy/internal/rng"
	"sphenergy/internal/sfc"
	"sphenergy/internal/sph"
)

func TestLatticeInBox(t *testing.T) {
	box := sfc.NewPeriodicCube(0, 1)
	p := sph.NewParticles(8 * 8 * 8)
	Lattice(p, box, 8, 0.3, 1)
	for i := 0; i < p.N; i++ {
		if p.X[i] < 0 || p.X[i] >= 1 || p.Y[i] < 0 || p.Y[i] >= 1 || p.Z[i] < 0 || p.Z[i] >= 1 {
			t.Fatalf("particle %d at (%v,%v,%v) outside box", i, p.X[i], p.Y[i], p.Z[i])
		}
	}
}

func TestLatticeZeroJitterIsRegular(t *testing.T) {
	box := sfc.NewCube(0, 1)
	p := sph.NewParticles(4 * 4 * 4)
	Lattice(p, box, 4, 0, 1)
	if math.Abs(p.X[0]-0.125) > 1e-12 {
		t.Errorf("first lattice point x = %v, want 0.125", p.X[0])
	}
}

func TestTurbulenceMachTarget(t *testing.T) {
	spec := DefaultTurbulence(12)
	spec.Mach = 0.4
	p, opt := Turbulence(spec)
	var sum float64
	for i := 0; i < p.N; i++ {
		sum += p.VX[i]*p.VX[i] + p.VY[i]*p.VY[i] + p.VZ[i]*p.VZ[i]
	}
	vrms := math.Sqrt(sum / float64(p.N))
	// Bulk-motion removal perturbs the RMS slightly.
	if math.Abs(vrms/spec.Cs-0.4) > 0.05 {
		t.Errorf("Mach rms = %v, want ~0.4", vrms/spec.Cs)
	}
	if _, ok := opt.EOS.(sph.Isothermal); !ok {
		t.Error("turbulence should use the isothermal EOS")
	}
}

func TestTurbulenceZeroNetMomentum(t *testing.T) {
	p, _ := Turbulence(DefaultTurbulence(10))
	var px, py, pz float64
	for i := 0; i < p.N; i++ {
		px += p.M[i] * p.VX[i]
		py += p.M[i] * p.VY[i]
		pz += p.M[i] * p.VZ[i]
	}
	if math.Abs(px)+math.Abs(py)+math.Abs(pz) > 1e-12 {
		t.Errorf("net momentum (%v, %v, %v), want 0", px, py, pz)
	}
}

// TestTurbulenceReproducible holds every coordinate and velocity of every
// particle to the same bits at GOMAXPROCS 1, 2 and 4: the velocities are
// filled in parallel, and side 22 gives each of four workers a chunk.
func TestTurbulenceReproducible(t *testing.T) {
	gen := func(procs int) *sph.Particles {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		p, _ := Turbulence(DefaultTurbulence(22))
		return p
	}
	a := gen(1)
	for _, procs := range []int{1, 2, 4} {
		b := gen(procs)
		for i := 0; i < a.N; i++ {
			if a.X[i] != b.X[i] || a.Y[i] != b.Y[i] || a.Z[i] != b.Z[i] ||
				a.VX[i] != b.VX[i] || a.VY[i] != b.VY[i] || a.VZ[i] != b.VZ[i] {
				t.Fatalf("GOMAXPROCS %d: particle %d differs from GOMAXPROCS 1", procs, i)
			}
		}
	}
}

// modeSum is the field's direct mode sum, Σ amp·sin(2π k·x + phase)·a with
// one math.Sin per mode, the reference At is held to. The field keeps only
// each phase's cos and sin, so phases come from modePhases.
func modeSum(f *SolenoidalField, phases []float64, x, y, z float64) (vx, vy, vz float64) {
	for i, m := range f.modes {
		ph := 2*math.Pi*(float64(m.kx)*x+float64(m.ky)*y+float64(m.kz)*z) + phases[i]
		s := m.amp * math.Sin(ph)
		vx += m.ax * s
		vy += m.ay * s
		vz += m.az * s
	}
	return
}

// modePhases draws the phases of NewSolenoidalField(·, ·, seed) again from
// its stream, which gives each mode three normals and then the phase.
func modePhases(t *testing.T, f *SolenoidalField, seed uint64) []float64 {
	r := rng.New(seed)
	phases := make([]float64, len(f.modes))
	for i, m := range f.modes {
		r.Norm()
		r.Norm()
		r.Norm()
		phases[i] = 2 * math.Pi * r.Float64()
		if sin, cos := math.Sincos(phases[i]); sin != m.sin || cos != m.cos {
			t.Fatalf("mode %d: phase %v is not the one the field drew", i, phases[i])
		}
	}
	return phases
}

// TestSolenoidalFieldMatchesModeSum holds At to the direct mode sum at every
// particle of DefaultTurbulence(20), and at every 40th with kmax past stackK,
// where At takes its phase tables from the heap.
func TestSolenoidalFieldMatchesModeSum(t *testing.T) {
	spec := DefaultTurbulence(20)
	p, _ := Turbulence(spec)
	for _, c := range []struct{ kmax, stride int }{{spec.KMax, 1}, {stackK + 1, 40}} {
		field := NewSolenoidalField(spec.KMin, c.kmax, spec.Seed+1)
		phases := modePhases(t, field, spec.Seed+1)
		var worst float64
		for i := 0; i < p.N; i += c.stride {
			ax, ay, az := field.At(p.X[i], p.Y[i], p.Z[i])
			bx, by, bz := modeSum(field, phases, p.X[i], p.Y[i], p.Z[i])
			worst = math.Max(worst, math.Max(math.Abs(ax-bx), math.Max(math.Abs(ay-by), math.Abs(az-bz))))
		}
		t.Logf("kmax %d, %d modes: worst difference %.3g", c.kmax, len(field.modes), worst)
		if worst > 1e-13 {
			t.Errorf("kmax %d: At differs from the mode sum by up to %g, want <= 1e-13", c.kmax, worst)
		}
	}
}

func TestSolenoidalFieldDivergenceFree(t *testing.T) {
	field := NewSolenoidalField(1, 3, 99)
	// Field amplitude scale for relative comparison.
	vx, vy, vz := field.At(0.3, 0.7, 0.2)
	scale := math.Sqrt(vx*vx+vy*vy+vz*vz) + 1e-12
	f := func(x, y, z float64) bool {
		// Map arbitrary floats into the unit box.
		x = math.Mod(math.Abs(x), 1)
		y = math.Mod(math.Abs(y), 1)
		z = math.Mod(math.Abs(z), 1)
		if math.IsNaN(x) || math.IsNaN(y) || math.IsNaN(z) {
			return true
		}
		div := field.Divergence(x, y, z)
		return math.Abs(div)/scale < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSolenoidalFieldPeriodic(t *testing.T) {
	field := NewSolenoidalField(1, 2, 5)
	ax, ay, az := field.At(0.25, 0.5, 0.75)
	bx, by, bz := field.At(1.25, 0.5, 0.75)
	if math.Abs(ax-bx) > 1e-9 || math.Abs(ay-by) > 1e-9 || math.Abs(az-bz) > 1e-9 {
		t.Error("velocity field not periodic with the unit box")
	}
}

func TestEvrardDensityProfile(t *testing.T) {
	p, _ := Evrard(DefaultEvrard(20))
	// Bin particles radially; mass in shell / shell volume should follow
	// rho ~ 1/r, i.e. r*rho ~ const = M/(2 pi R^2).
	const bins = 5
	shellMass := make([]float64, bins)
	for i := 0; i < p.N; i++ {
		r := math.Sqrt(p.X[i]*p.X[i] + p.Y[i]*p.Y[i] + p.Z[i]*p.Z[i])
		b := int(r * bins)
		if b >= bins {
			b = bins - 1
		}
		shellMass[b] += p.M[i]
	}
	// For rho = M/(2 pi R^2 r), shell [r1, r2] holds M*(r2^2 - r1^2)/R^2.
	for b := 1; b < bins-1; b++ { // edge bins suffer discreteness
		r1 := float64(b) / bins
		r2 := float64(b+1) / bins
		want := r2*r2 - r1*r1
		if math.Abs(shellMass[b]-want)/want > 0.2 {
			t.Errorf("shell %d mass %v, want %v (1/r profile)", b, shellMass[b], want)
		}
	}
}

func TestEvrardColdStart(t *testing.T) {
	p, _ := Evrard(DefaultEvrard(10))
	for i := 0; i < p.N; i++ {
		if p.VX[i] != 0 || p.VY[i] != 0 || p.VZ[i] != 0 {
			t.Fatal("Evrard must start at rest")
		}
		if p.U[i] != 0.05 {
			t.Fatalf("u = %v, want 0.05", p.U[i])
		}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestMassConservation(t *testing.T) {
	p, _ := Turbulence(DefaultTurbulence(10))
	var m float64
	for i := 0; i < p.N; i++ {
		m += p.M[i]
	}
	if math.Abs(m-1) > 1e-9 {
		t.Errorf("turbulence total mass %v, want 1", m)
	}
	pe, _ := Evrard(DefaultEvrard(12))
	m = 0
	for i := 0; i < pe.N; i++ {
		m += pe.M[i]
	}
	if math.Abs(m-1) > 1e-9 {
		t.Errorf("Evrard total mass %v, want 1", m)
	}
}

// Divergence numerically evaluates the field divergence at a point (used by
// tests to verify the solenoidal property).
func (f *SolenoidalField) Divergence(x, y, z float64) float64 {
	const e = 1e-5
	vxp, _, _ := f.At(x+e, y, z)
	vxm, _, _ := f.At(x-e, y, z)
	_, vyp, _ := f.At(x, y+e, z)
	_, vym, _ := f.At(x, y-e, z)
	_, _, vzp := f.At(x, y, z+e)
	_, _, vzm := f.At(x, y, z-e)
	return (vxp-vxm)/(2*e) + (vyp-vym)/(2*e) + (vzp-vzm)/(2*e)
}

// benchSink keeps BenchmarkTurbulence's result alive.
var benchSink *sph.Particles

// BenchmarkTurbulence times the turb30 initial conditions, lattice and
// velocity field together.
func BenchmarkTurbulence(b *testing.B) {
	spec := DefaultTurbulence(30)
	n := spec.NSide * spec.NSide * spec.NSide
	for i := 0; i < b.N; i++ {
		benchSink, _ = Turbulence(spec)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/particle")
}
