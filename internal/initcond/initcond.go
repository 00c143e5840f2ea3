// Package initcond generates the initial conditions for the paper's two
// workloads: Subsonic Turbulence and Evrard Collapse.
//
// Particle counts are expressed as n³ lattices ("450³ particles" in the
// paper). Turbulence starts from a periodic glass-like lattice with a
// solenoidal large-scale velocity field at a prescribed RMS Mach number;
// Evrard is the classic cold 1/r-density gas sphere that collapses under
// self-gravity.
package initcond

import (
	"math"

	"sphenergy/internal/par"
	"sphenergy/internal/rng"
	"sphenergy/internal/sfc"
	"sphenergy/internal/sph"
)

// Lattice fills positions with an n³ cubic lattice in the box, jittered by
// `jitter` fractions of the spacing to avoid pathological symmetry.
func Lattice(p *sph.Particles, box sfc.Box, n int, jitter float64, seed uint64) {
	r := rng.New(seed)
	dx := box.Lx() / float64(n)
	dy := box.Ly() / float64(n)
	dz := box.Lz() / float64(n)
	idx := 0
	for iz := 0; iz < n && idx < p.N; iz++ {
		for iy := 0; iy < n && idx < p.N; iy++ {
			for ix := 0; ix < n && idx < p.N; ix++ {
				p.X[idx] = box.Xmin + (float64(ix)+0.5+jitter*(r.Float64()-0.5))*dx
				p.Y[idx] = box.Ymin + (float64(iy)+0.5+jitter*(r.Float64()-0.5))*dy
				p.Z[idx] = box.Zmin + (float64(iz)+0.5+jitter*(r.Float64()-0.5))*dz
				p.X[idx], p.Y[idx], p.Z[idx] = box.Wrap(p.X[idx], p.Y[idx], p.Z[idx])
				idx++
			}
		}
	}
}

// TurbulenceSpec configures the Subsonic Turbulence initial condition.
type TurbulenceSpec struct {
	NSide int     // particles per dimension (N = NSide³)
	Mach  float64 // target RMS Mach number (subsonic: < 1)
	Cs    float64 // isothermal sound speed
	Rho0  float64 // mean density
	KMin  int     // smallest driven wavenumber
	KMax  int     // largest driven wavenumber
	Seed  uint64
}

// DefaultTurbulence returns the spec used by the examples: Mach 0.3
// solenoidal velocity field driven on the largest scales.
func DefaultTurbulence(nSide int) TurbulenceSpec {
	return TurbulenceSpec{NSide: nSide, Mach: 0.3, Cs: 1.0, Rho0: 1.0, KMin: 1, KMax: 3, Seed: 42}
}

// Turbulence builds the particle set and SPH options for a Subsonic
// Turbulence run in a unit periodic box.
func Turbulence(spec TurbulenceSpec) (*sph.Particles, sph.Options) {
	n := spec.NSide * spec.NSide * spec.NSide
	box := sfc.NewPeriodicCube(0, 1)
	p := sph.NewParticles(n)
	Lattice(p, box, spec.NSide, 0.2, spec.Seed)

	totalMass := spec.Rho0 * box.Volume()
	mass := totalMass / float64(n)
	// 2h0 is 1.2 times the radius of the ball that holds 64 lattice sites,
	// so ≈ 1.2³·64 ≈ 110 lattice neighbours lie within 2h0, not 64: the
	// first neighbour build stores ≈ 259 candidates per particle, later ones
	// ≈ 145–160 once the h update has brought the counts to Options.NgTarget.
	h0 := 1.2 * math.Cbrt(3.0/(4*math.Pi)*64) / (2 * float64(spec.NSide))
	for i := 0; i < n; i++ {
		p.M[i] = mass
		p.H[i] = h0
		p.U[i] = spec.Cs * spec.Cs // nominal for ideal-gas fallback
		p.Alpha[i] = 0.05
		p.Rho[i] = spec.Rho0
	}

	// Solenoidal velocity field: superpose a few large-scale Fourier modes
	// with divergence-free polarization, then rescale to the target Mach.
	// Each particle's velocity depends on its position alone, so the bits
	// are the same at every width.
	field := NewSolenoidalField(spec.KMin, spec.KMax, spec.Seed+1)
	par.Chunked(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			p.VX[i], p.VY[i], p.VZ[i] = field.At(p.X[i], p.Y[i], p.Z[i])
		}
	})
	// Rescale to target RMS velocity = Mach * cs.
	var sum float64
	for i := 0; i < n; i++ {
		sum += p.VX[i]*p.VX[i] + p.VY[i]*p.VY[i] + p.VZ[i]*p.VZ[i]
	}
	vrms := math.Sqrt(sum / float64(n))
	scale := spec.Mach * spec.Cs / (vrms + 1e-30)
	for i := 0; i < n; i++ {
		p.VX[i] *= scale
		p.VY[i] *= scale
		p.VZ[i] *= scale
	}
	// Remove net momentum so the box does not drift.
	removeBulkMotion(p)

	opt := sph.DefaultOptions(box)
	opt.EOS = sph.Isothermal{Cs: spec.Cs}
	return p, opt
}

func removeBulkMotion(p *sph.Particles) {
	var mx, my, mz, m float64
	for i := 0; i < p.N; i++ {
		mx += p.M[i] * p.VX[i]
		my += p.M[i] * p.VY[i]
		mz += p.M[i] * p.VZ[i]
		m += p.M[i]
	}
	for i := 0; i < p.N; i++ {
		p.VX[i] -= mx / m
		p.VY[i] -= my / m
		p.VZ[i] -= mz / m
	}
}

// SolenoidalField is a divergence-free random velocity field composed of a
// small number of Fourier modes, the standard turbulence seed/driving
// pattern (cf. stirring modules in astro hydro codes).
type SolenoidalField struct {
	kmax  int
	modes []fieldMode
}

// fieldMode is one term amp·sin(2π k·x + phase)·a of the field.
type fieldMode struct {
	kx, ky, kz int     // wave vector, each component in [-kmax, kmax]
	ax, ay, az float64 // polarization (unit, perpendicular to k)
	amp        float64
	cos, sin   float64 // of the phase, drawn uniform in [0, 2π)
}

// NewSolenoidalField creates a field with all integer wave vectors k with
// kmin <= |k| <= kmax, amplitudes following a k^-2 (Burgers-like) spectrum.
func NewSolenoidalField(kmin, kmax int, seed uint64) *SolenoidalField {
	r := rng.New(seed)
	f := &SolenoidalField{kmax: kmax}
	for kx := -kmax; kx <= kmax; kx++ {
		for ky := -kmax; ky <= kmax; ky++ {
			for kz := -kmax; kz <= kmax; kz++ {
				k2 := kx*kx + ky*ky + kz*kz
				if k2 == 0 || k2 < kmin*kmin || k2 > kmax*kmax {
					continue
				}
				kv := [3]float64{float64(kx), float64(ky), float64(kz)}
				// Random vector projected perpendicular to k (solenoidal).
				rx, ry, rz := r.Norm(), r.Norm(), r.Norm()
				kn := math.Sqrt(kv[0]*kv[0] + kv[1]*kv[1] + kv[2]*kv[2])
				dot := (rx*kv[0] + ry*kv[1] + rz*kv[2]) / (kn * kn)
				ax := rx - dot*kv[0]
				ay := ry - dot*kv[1]
				az := rz - dot*kv[2]
				an := math.Sqrt(ax*ax+ay*ay+az*az) + 1e-30
				amp := math.Pow(float64(k2), -1) // k^-2 energy => k^-1 amplitude per mode
				sin, cos := math.Sincos(2 * math.Pi * r.Float64())
				f.modes = append(f.modes, fieldMode{
					kx: kx, ky: ky, kz: kz,
					ax: ax / an, ay: ay / an, az: az / an,
					amp: amp, cos: cos, sin: sin,
				})
			}
		}
	}
	return f
}

// stackK is the largest kmax whose phase tables At keeps on the stack.
const stackK = 8

// At evaluates the velocity field at a position in the unit box. It takes
// e^{2πikx} for k = -kmax…kmax on each axis from one math.Sincos and angle
// addition, so a mode costs two complex products and a rotation by its
// phase instead of a math.Sin of 2π k·x + phase. The two sums differ by
// rounding alone: within 1e-13 on DefaultTurbulence's lattice.
func (f *SolenoidalField) At(x, y, z float64) (vx, vy, vz float64) {
	w := 2*f.kmax + 1
	var stack [3 * (2*stackK + 1)]complex128
	tab := stack[:]
	if f.kmax > stackK {
		tab = make([]complex128, 3*w)
	}
	ex, ey, ez := tab[:w], tab[w:2*w], tab[2*w:3*w]
	phaseTable(ex, f.kmax, x)
	phaseTable(ey, f.kmax, y)
	phaseTable(ez, f.kmax, z)
	k := f.kmax
	for i := range f.modes {
		m := &f.modes[i]
		e := ex[m.kx+k] * ey[m.ky+k] * ez[m.kz+k] // e^{2πi k·x}
		s := m.amp * (imag(e)*m.cos + real(e)*m.sin)
		vx += m.ax * s
		vy += m.ay * s
		vz += m.az * s
	}
	return
}

// phaseTable fills t[k+kmax] with e^{2πikx} for k = -kmax…kmax.
func phaseTable(t []complex128, kmax int, x float64) {
	s, c := math.Sincos(2 * math.Pi * x)
	e1 := complex(c, s)
	e := complex(1, 0)
	t[kmax] = e
	for k := 1; k <= kmax; k++ {
		e *= e1
		t[kmax+k] = e
		t[kmax-k] = complex(real(e), -imag(e))
	}
}

// EvrardSpec configures the Evrard collapse initial condition.
type EvrardSpec struct {
	NSide int     // nominal lattice resolution before radial stretching
	R     float64 // sphere radius
	M     float64 // total mass
	U0    float64 // initial specific internal energy (0.05 GM/R classic)
	// Seed selects nothing: Evrard draws no random numbers. It stays
	// because the benchmark sets it.
	Seed uint64
}

// DefaultEvrard returns the classic Evrard setup: R = 1, M = 1, u0 = 0.05
// in G = 1 units.
func DefaultEvrard(nSide int) EvrardSpec {
	return EvrardSpec{NSide: nSide, R: 1, M: 1, U0: 0.05, Seed: 7}
}

// Evrard builds the particle set and options for an Evrard collapse run.
// Particles sample the rho(r) = M/(2 pi R^2 r) profile by radially
// stretching a uniform lattice ball: r_new = R * (r_old/R)^(3/2) maps a
// uniform ball onto the 1/r profile.
func Evrard(spec EvrardSpec) (*sph.Particles, sph.Options) {
	// Collect lattice points inside the unit ball.
	type pt struct{ x, y, z float64 }
	var pts []pt
	n := spec.NSide
	d := 2.0 / float64(n)
	for ix := 0; ix < n; ix++ {
		for iy := 0; iy < n; iy++ {
			for iz := 0; iz < n; iz++ {
				x := -1 + (float64(ix)+0.5)*d
				y := -1 + (float64(iy)+0.5)*d
				z := -1 + (float64(iz)+0.5)*d
				if x*x+y*y+z*z <= 1 {
					pts = append(pts, pt{x, y, z})
				}
			}
		}
	}
	N := len(pts)
	p := sph.NewParticles(N)
	mass := spec.M / float64(N)
	// Radial stretch: uniform ball -> 1/r density.
	for i, q := range pts {
		r := math.Sqrt(q.x*q.x + q.y*q.y + q.z*q.z)
		if r < 1e-12 {
			p.X[i], p.Y[i], p.Z[i] = 0, 0, 0
		} else {
			rnew := spec.R * math.Pow(r, 1.5)
			s := rnew / r
			p.X[i], p.Y[i], p.Z[i] = q.x*s, q.y*s, q.z*s
		}
		p.M[i] = mass
		p.U[i] = spec.U0
		p.Alpha[i] = 0.05
		p.Rho[i] = spec.M / (2 * math.Pi * spec.R * spec.R * math.Max(math.Sqrt(p.X[i]*p.X[i]+p.Y[i]*p.Y[i]+p.Z[i]*p.Z[i]), 0.05*spec.R))
		// Local smoothing length from the local density.
		p.H[i] = 1.2 * math.Cbrt(3*64*mass/(4*math.Pi*p.Rho[i])) / 2
	}
	// Open box 4x the sphere radius; collapse stays well inside.
	box := sfc.NewCube(-2*spec.R, 2*spec.R)
	opt := sph.DefaultOptions(box)
	opt.EOS = sph.IdealGas{Gamma: 5.0 / 3.0}
	opt.GravG = 1
	opt.GravEps = 0.05 * spec.R / math.Cbrt(float64(N)/1000)
	return p, opt
}
