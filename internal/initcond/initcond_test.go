package initcond

import (
	"math"
	"testing"
	"testing/quick"

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

func TestTurbulenceReproducible(t *testing.T) {
	a, _ := Turbulence(DefaultTurbulence(8))
	b, _ := Turbulence(DefaultTurbulence(8))
	for i := 0; i < a.N; i++ {
		if a.X[i] != b.X[i] || a.VX[i] != b.VX[i] {
			t.Fatal("same spec produced different initial conditions")
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

func TestSedovEnergyInjection(t *testing.T) {
	spec := SedovSpec{NSide: 12, E0: 1.0, Rho0: 1.0, Seed: 3}
	p, _ := Sedov(spec)
	var total float64
	for i := 0; i < p.N; i++ {
		total += p.M[i] * p.U[i]
	}
	// Total internal energy = E0 + background.
	if math.Abs(total-1.0) > 0.01 {
		t.Errorf("injected energy %v, want ~1.0", total)
	}
	// Energy concentrates at the center.
	var maxU float64
	var maxI int
	for i := 0; i < p.N; i++ {
		if p.U[i] > maxU {
			maxU, maxI = p.U[i], i
		}
	}
	dx, dy, dz := p.X[maxI]-0.5, p.Y[maxI]-0.5, p.Z[maxI]-0.5
	if math.Sqrt(dx*dx+dy*dy+dz*dz) > 0.2 {
		t.Error("hottest particle is far from the blast center")
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
