// Package sph implements the smoothed-particle-hydrodynamics pipeline of the
// SPH-EXA simulation framework: volume-element density (XMass), gradh
// normalization, equation of state, the integral approach to derivatives
// (IAD) with velocity divergence/curl, artificial-viscosity switches,
// momentum and energy rates, and CFL time stepping.
//
// The function decomposition deliberately mirrors the per-function
// instrumentation points of the paper (DomainDecompAndSync, FindNeighbors,
// XMass, NormalizationGradh, EquationOfState, IADVelocityDivCurl,
// AVSwitches, MomentumEnergy, Timestep, UpdateQuantities), because those are
// the units at which energy is attributed and GPU frequencies are switched.
//
// Storage is structure-of-arrays, matching both GPU-style data layout and
// cache-friendly traversal on CPUs.
package sph

import (
	"fmt"
	"math"

	"sphenergy/internal/kernel"
	"sphenergy/internal/neighbors"
	"sphenergy/internal/par"
	"sphenergy/internal/sfc"
)

// Particles holds the SoA particle state of one domain (rank).
type Particles struct {
	N int

	// Positions, velocities, accelerations.
	X, Y, Z    []float64
	VX, VY, VZ []float64
	AX, AY, AZ []float64

	// Mass, smoothing length.
	M, H []float64

	// Thermodynamics.
	Rho []float64 // density (via kx and volume elements)
	P   []float64 // pressure
	C   []float64 // sound speed
	U   []float64 // specific internal energy
	DU  []float64 // du/dt

	// Volume-element machinery.
	XM    []float64 // volume element mass x_i (= m_i, standard SPH)
	Kx    []float64 // normalization kx_i = sum_j x_j W_ij (density estimate per x)
	Gradh []float64 // Omega_i gradh correction factor

	// IAD tensor (symmetric 3x3, inverse stored).
	C11, C12, C13, C22, C23, C33 []float64

	// Velocity derivatives.
	DivV  []float64
	CurlV []float64

	// Artificial viscosity switch.
	Alpha []float64

	// Per-particle neighbor count from the last FindNeighbors.
	NC []int32

	// Keys caches the SFC key per particle for domain sync.
	Keys []sfc.Key
}

// NewParticles allocates state for n particles.
func NewParticles(n int) *Particles {
	p := &Particles{N: n}
	fs := []*[]float64{
		&p.X, &p.Y, &p.Z, &p.VX, &p.VY, &p.VZ, &p.AX, &p.AY, &p.AZ,
		&p.M, &p.H, &p.Rho, &p.P, &p.C, &p.U, &p.DU,
		&p.XM, &p.Kx, &p.Gradh,
		&p.C11, &p.C12, &p.C13, &p.C22, &p.C23, &p.C33,
		&p.DivV, &p.CurlV, &p.Alpha,
	}
	for _, f := range fs {
		*f = make([]float64, n)
	}
	p.NC = make([]int32, n)
	p.Keys = make([]sfc.Key, n)
	return p
}

// Len returns the particle count.
func (p *Particles) Len() int { return p.N }

// Validate performs basic sanity checks (finite positions, positive mass and
// smoothing length).
func (p *Particles) Validate() error {
	for i := 0; i < p.N; i++ {
		if math.IsNaN(p.X[i]) || math.IsNaN(p.Y[i]) || math.IsNaN(p.Z[i]) {
			return fmt.Errorf("sph: particle %d has NaN position", i)
		}
		if p.M[i] <= 0 {
			return fmt.Errorf("sph: particle %d has non-positive mass %g", i, p.M[i])
		}
		if p.H[i] <= 0 {
			return fmt.Errorf("sph: particle %d has non-positive smoothing length %g", i, p.H[i])
		}
	}
	return nil
}

// MaxH returns the largest smoothing length, used to size the neighbor grid.
func (p *Particles) MaxH() float64 {
	m := 0.0
	for i := 0; i < p.N; i++ {
		if p.H[i] > m {
			m = p.H[i]
		}
	}
	return m
}

// Reorder permutes all particle fields by perm (newIndex -> oldIndex),
// typically an SFC sort order.
func (p *Particles) Reorder(perm []int) {
	if len(perm) != p.N {
		panic("sph: permutation length mismatch")
	}
	tmp := make([]float64, p.N) // one scratch buffer shared by all fields
	reorderF := func(f []float64) {
		for i, o := range perm {
			tmp[i] = f[o]
		}
		copy(f, tmp)
	}
	for _, f := range [][]float64{
		p.X, p.Y, p.Z, p.VX, p.VY, p.VZ, p.AX, p.AY, p.AZ,
		p.M, p.H, p.Rho, p.P, p.C, p.U, p.DU,
		p.XM, p.Kx, p.Gradh,
		p.C11, p.C12, p.C13, p.C22, p.C23, p.C33,
		p.DivV, p.CurlV, p.Alpha,
	} {
		reorderF(f)
	}
	tmpK := make([]sfc.Key, p.N)
	for i, o := range perm {
		tmpK[i] = p.Keys[o]
	}
	copy(p.Keys, tmpK)
	tmpN := make([]int32, p.N)
	for i, o := range perm {
		tmpN[i] = p.NC[o]
	}
	copy(p.NC, tmpN)
}

// Artificial viscosity and timestep constants.
const (
	alphaMin, alphaMax = 0.05, 1.0 // bounds of the switch's viscosity coefficient
	avBeta             = 2.0       // beta = 2*alpha convention when fixed
	avDecayTime        = 0.2       // tau multiplier for the alpha decay
	cfl                = 0.3       // Courant factor for the timestep
	maxDtGrowth        = 1.1       // bound on dt growth between steps
)

// Options configures the SPH pipeline.
type Options struct {
	Kernel kernel.WendlandC2 // the smoothing kernel, called directly
	Box    sfc.Box

	// NgTarget is the desired neighbor count (SPH-EXA uses ~100-150 for
	// production; smaller values keep tests fast).
	NgTarget int

	// EOS selects the equation of state.
	EOS EOS

	// NgMax caps the per-particle neighbor-list length (SPH-EXA's ngmax);
	// particles whose support holds more neighbors are truncated and
	// counted in State.List.Overflow. Zero selects 4×NgTarget (at least
	// 192).
	NgMax int

	// ClosureWalk selects the reference pipeline: every pass re-traverses
	// the search grid with a per-neighbor callback and each particle sums
	// over its own neighbors. It is the oracle the tests and the benchmark's
	// verification compare against. Unset, the production pipeline runs:
	// FindNeighbors keeps a pair list up to date (Verlet-skin candidates,
	// see Skin) and the pair passes visit each pair once, contributing to
	// both endpoints. While no row overflows NgMax (a cap the walk does not
	// have) the two integrate identical pair sets and agree within 1e-9
	// relative (they differ by rounding: summation order, the reciprocal h
	// of the density sweep, the IAD gradient as D·C); the production path
	// is deterministic for a fixed GOMAXPROCS.
	ClosureWalk bool

	// ReorderEvery makes RunStep reorder particles along the Morton SFC
	// every K steps (0 disables), so neighbor-list indices keep pointing
	// at cache-adjacent memory as particles mix. The cadence is keyed to
	// the rebuild trigger: once K steps have passed, the reorder rides
	// along with the next candidate rebuild (reordering invalidates the
	// candidate cache anyway) and is forced at 2K so the memory layout
	// cannot go permanently stale.
	ReorderEvery int

	// Skin is the Verlet-skin fraction of the neighbor search: a rebuild
	// gathers every pair within (1+Skin)·2·1.3·h of each other, h the larger
	// of the two — once, with the endpoint the gather's half stencil finds it
	// from, binned by distance in units of that h into shells (see
	// NeighborList) — and later steps reuse that half candidate list,
	// recomputing only the cached pairs' distances, while it provably holds
	// every pair inside a support: the margin between a particle's support
	// 2·h and its candidate radius is spent on drift (its own plus the
	// largest of anyone's), checked before the pass for the arriving h and
	// after its counts for an h the update grew. A refresh admits exactly
	// the pairs a rebuild would, so the value changes cost, not the pair
	// set: 0 rebuilds on every step, larger skins rebuild less often and
	// make the gather of a rebuild, not the steps between, reach further —
	// a refresh streams only the shells that drift and h growth since the
	// build can have brought inside a support.
	Skin float64

	// Self-gravity parameters for drivers that pass RunStep a tree-gravity
	// extraAccel closure (Evrard collapse).
	GravG     float64 // gravitational constant in simulation units
	GravEps   float64 // softening length
	GravTheta float64 // Barnes-Hut opening angle

	// PassHook, when non-nil, is called by RunStep after each pipeline pass
	// with the pass name (see PassNames) and its wall-clock duration in
	// seconds. Nil skips the timing entirely — the uninstrumented step pays
	// only a nil check per pass.
	PassHook func(pass string, seconds float64)

	// NeighborEvent, when non-nil, observes every FindNeighbors outcome on
	// the production path with the step index and the kind: "init", "drift"
	// or "overflow" for candidate rebuilds (matching the NbrStats cause
	// counters) and "refresh" for a Verlet-skin refresh. Nil costs a single
	// check; the closure-walk pipeline never fires it.
	NeighborEvent func(step int, kind string)
}

// DefaultOptions returns the options used by the examples and tests.
func DefaultOptions(box sfc.Box) Options {
	return Options{
		Kernel:       kernel.WendlandC2{},
		Box:          box,
		NgTarget:     64,
		EOS:          IdealGas{Gamma: 5.0 / 3.0},
		ReorderEvery: 32,
		Skin:         0.3,
		GravG:        1.0,
		GravEps:      1e-3,
		GravTheta:    0.5,
	}
}

// skin resolves the skin fraction candidates are gathered with; a negative
// Skin is none.
func (o Options) skin() float64 {
	if o.Skin < 0 {
		return 0
	}
	return o.Skin
}

// ngmax resolves the effective per-particle neighbor-list cap.
func (o Options) ngmax() int {
	if o.NgMax > 0 {
		return o.NgMax
	}
	m := 4 * o.NgTarget
	if m < 192 {
		m = 192
	}
	return m
}

// State bundles particles with the neighbor structure of the current step.
type State struct {
	P    *Particles
	Opt  Options
	Grid *neighbors.Grid

	// List is the neighbor list FindNeighbors maintains (nil in ClosureWalk
	// mode and before the first FindNeighbors); its buffers are reused
	// across steps, and across an SFC reorder, which empties it.
	List *NeighborList

	// MaxH caches the largest smoothing length after FindNeighbors; the
	// closure-walk momentum pass uses it to bound its neighbor scan.
	MaxH float64

	// Dt is the current timestep; Time the accumulated simulated physics time.
	Dt, Time float64
	Step     int

	// LastReorderStep records the step of the last SFC reorder; RunStep keys
	// the reorder cadence to it and it is checkpointed so restarted runs
	// replay the same reorder (and therefore rebuild) steps.
	LastReorderStep int

	// NbrStats counts how FindNeighbors resolved each step (diagnostic
	// only; not checkpointed).
	NbrStats NeighborStats

	gridBuf *neighbors.Grid // reused cell-grid buffers across rebuilds
	candR   []float64       // candidate gather scratch: every particle's candidate radius
	hNew    []float64       // FindNeighbors scratch: the updated H, until the list stands
	ncNew   []int32         // FindNeighbors scratch: the neighbor counts, likewise
	chunks  []*listChunk    // FindNeighbors scratch: the ranges of the sweep in flight
	perm    []int           // ReorderBySFC scratch: the sort permutation
	scat    par.Scatter     // scatter-add accumulators of the pair passes

	// work counts what FindNeighbors has done so far. Benchmarks report it.
	work listWork
}

// listWork counts, exactly, the work of every FindNeighbors so far on the
// production path. A rebuild gathers (distance tests, contiguous runs walked,
// see neighbors.Candidates) and stores candidates; every step streams
// candidates, shell by shell, compacts survivors and writes records; a step
// whose h update outgrew hGrowthAllow streams and compacts twice and counts
// as a repeat.
type listWork struct {
	gatherTests, gatherRuns, stored      int
	streamed, shells, survivors, records int
	repeats                              int
}

// NeighborStats breaks down FindNeighbors activity on the production path
// since the state was created: how many steps rebuilt the Verlet-skin
// candidate list versus refreshing the cached pairs, what triggered each
// rebuild, and how often a pass could not use the list.
type NeighborStats struct {
	Rebuilds  int // candidate-list builds (sum of the cause counters)
	Refreshes int // steps served from the cached candidate list

	RebuildInit     int // no valid list: first step, post-reorder
	RebuildDrift    int // the skin ran out: drift, found before a refresh or by a support grown during one
	RebuildOverflow int // ngmax overflow during a refresh forced a rebuild

	// WalkFallbacks counts the pair passes (XMass, NormalizationGradh,
	// IADVelocityDivCurl, MomentumEnergy) that walked the grid although the
	// production path was asked for: no pair list for these particles, or
	// one XMass has not swept. A RunStep never adds to it.
	WalkFallbacks int
}

// NewState creates a simulation state. The first Timestep call sets Dt
// purely from the CFL criterion; afterwards growth is bounded by
// MaxDtGrowth.
func NewState(p *Particles, opt Options) *State {
	return &State{P: p, Opt: opt}
}
