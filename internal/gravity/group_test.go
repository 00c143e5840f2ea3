package gravity

import (
	"math"
	"runtime"
	"testing"

	"sphenergy/internal/initcond"
	"sphenergy/internal/par"
)

// interactionCounts walks every group serially and returns how many
// multipole (m2p) and direct (p2p, the group's own particles included)
// terms the targets sum in total. The counts are a property of the tree and
// the particle positions alone, so they repeat exactly.
func (t *Tree) interactionCounts() (m2p, p2p int) {
	var l lists
	for _, g := range t.groups {
		t.walk(g, &l)
		ng := int(t.nodes[g].end - t.nodes[g].start)
		m2p += ng * len(l.far)
		p2p += ng * (len(l.direct) + ng - 1)
	}
	return
}

// directSum is the O(n²) reference, rows in parallel.
func directSum(x, y, z, m []float64, eps, g float64) (ax, ay, az, pot []float64) {
	n := len(x)
	ax, ay, az, pot = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	par.For(n, func(i int) {
		var gx, gy, gz, p float64
		for j := 0; j < n; j++ {
			dx, dy, dz := x[j]-x[i], y[j]-y[i], z[j]-z[i]
			r2 := dx*dx + dy*dy + dz*dz + eps*eps
			if j == i || r2 == 0 {
				continue
			}
			inv := 1 / math.Sqrt(r2)
			gx += m[j] * dx * inv * inv * inv
			gy += m[j] * dy * inv * inv * inv
			gz += m[j] * dz * inv * inv * inv
			p -= m[j] * inv
		}
		ax[i], ay[i], az[i], pot[i] = g*gx, g*gy, g*gz, g*p
	})
	return
}

// treeSum runs Build + AccelerationsInto into fresh arrays.
func treeSum(x, y, z, m []float64, theta, eps, g float64) (ax, ay, az, pot []float64) {
	n := len(x)
	ax, ay, az, pot = make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)
	Build(x, y, z, m, theta, eps, g).AccelerationsInto(ax, ay, az, pot)
	return
}

// forceErrors compares tree accelerations a with reference b: the mean
// relative error Σ|Δa|/Σ|a|, the worst single particle's |Δa|/|a|, and the
// worst relative potential error.
func forceErrors(ax, ay, az, pot, bx, by, bz, bpot []float64) (mean, worst, worstPot float64) {
	var errSum, refSum float64
	for i := range ax {
		dx, dy, dz := ax[i]-bx[i], ay[i]-by[i], az[i]-bz[i]
		e := math.Sqrt(dx*dx + dy*dy + dz*dz)
		ref := math.Sqrt(bx[i]*bx[i] + by[i]*by[i] + bz[i]*bz[i])
		errSum += e
		refSum += ref
		worst = math.Max(worst, e/ref)
		worstPot = math.Max(worstPot, math.Abs((pot[i]-bpot[i])/bpot[i]))
	}
	return errSum / refSum, worst, worstPot
}

// TestEvrardForceAccuracy holds the tree to direct summation on the state
// and at the opening angle every caller uses. The mean-error ceilings are
// the pointer tree's readings (per-particle walk, leaves never accepted as
// multipoles): the group walk must be no less accurate than what it
// replaced. Measuring the criterion from the group's centre instead of its
// bounding box trips them (7.4e-4 at side 30, 1.7e-3 at side 20).
func TestEvrardForceAccuracy(t *testing.T) {
	for _, c := range []struct {
		side            int
		meanMax, potMax float64
	}{{20, 5.7e-4, 4.4e-4}, {30, 4.4e-4, 2.3e-4}} {
		p, opt := initcond.Evrard(initcond.DefaultEvrard(c.side))
		if opt.GravTheta != 0.5 {
			t.Fatalf("Evrard's opening angle is %v; the ceilings below were read at 0.5", opt.GravTheta)
		}
		ax, ay, az, pot := treeSum(p.X, p.Y, p.Z, p.M, opt.GravTheta, opt.GravEps, opt.GravG)
		bx, by, bz, bpot := directSum(p.X, p.Y, p.Z, p.M, opt.GravEps, opt.GravG)
		mean, worst, worstPot := forceErrors(ax, ay, az, pot, bx, by, bz, bpot)
		t.Logf("side %d, n = %d: mean %.3g, worst particle %.3g, worst potential %.3g", c.side, p.N, mean, worst, worstPot)
		if mean > c.meanMax {
			t.Errorf("side %d: mean relative force error %.3g, want ≤ %.3g", c.side, mean, c.meanMax)
		}
		if worst > 6e-3 {
			t.Errorf("side %d: worst particle's relative force error %.3g, want ≤ 6e-3", c.side, worst)
		}
		if worstPot > c.potMax {
			t.Errorf("side %d: worst relative potential error %.3g, want ≤ %.3g", c.side, worstPot, c.potMax)
		}
	}
}

// TestCoincidentParticlesUnsoftened: with Eps = 0 a pair at zero distance
// used to contribute 0·Inf = NaN to each other's acceleration and -Inf to
// the potential. It exerts no net force and is skipped.
func TestCoincidentParticlesUnsoftened(t *testing.T) {
	ax, ay, az, pot := treeSum([]float64{0, 0, 1}, []float64{0, 0, 0}, []float64{0, 0, 0}, []float64{1, 1, 1}, 0.5, 0, 1)
	for i, want := range [][4]float64{{1, 0, 0, -1}, {1, 0, 0, -1}, {-2, 0, 0, -2}} {
		if got := [4]float64{ax[i], ay[i], az[i], pot[i]}; got != want {
			t.Errorf("particle %d: (ax, ay, az, pot) = %v, want %v", i, got, want)
		}
	}
}

// TestGroupNeverAttractedByItself: a heavy clump in one corner of the root
// cell and a light one in the opposite corner put the root's centre of mass
// √3 root edges from the light clump's bounding box, so at θ = 1 the
// geometric criterion alone would accept the root — the light clump
// included — as a multipole acting on the light clump (the flat tree's O(1)
// range test forbids it). Every group's lists plus the group itself must
// account for each particle exactly once.
func TestGroupNeverAttractedByItself(t *testing.T) {
	var x, y, z, m []float64
	for i := 0; i < 60; i++ {
		c, mass := 0.0, 1000.0 // the heavy clump, 40 particles at the origin
		if i >= 40 {
			c, mass = 1, 1 // the light one, 20 at (1, 1, 1)
		}
		f := float64(i%40) * 1e-4
		x, y, z, m = append(x, c+f), append(y, c+f*f*3e3), append(z, c+1e-3-f), append(m, mass)
	}
	tree := Build(x, y, z, m, 1.0, 0, 1)
	var l lists
	for _, grp := range tree.groups {
		tree.walk(grp, &l)
		n := int(tree.nodes[grp].end-tree.nodes[grp].start) + len(l.direct)
		mass := tree.nodes[grp].m
		for _, f := range l.far {
			mass += f.m
		}
		for _, b := range l.direct {
			mass += b.m
		}
		if math.Abs(mass-tree.TotalMass()) > 1e-9*tree.TotalMass() {
			t.Errorf("group %d sums mass %v over %d direct particles and %d multipoles, want %v", grp, mass, n, len(l.far), tree.TotalMass())
		}
	}
}

// TestResultIndependentOfWorkers: every target's sum order is fixed by its
// group's lists, so the output is the same bit for bit at any width and
// from a serial loop over the groups.
func TestResultIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	p, opt := initcond.Evrard(initcond.DefaultEvrard(14))
	n := p.N
	tree := Build(p.X, p.Y, p.Z, p.M, opt.GravTheta, opt.GravEps, opt.GravG)
	want := [4][]float64{make([]float64, n), make([]float64, n), make([]float64, n), make([]float64, n)}
	var l lists
	for _, g := range tree.groups {
		tree.groupAccel(g, &l, want[0], want[1], want[2], want[3])
	}
	for _, procs := range []int{1, 2, 4, 7} {
		runtime.GOMAXPROCS(procs)
		ax, ay, az, pot := treeSum(p.X, p.Y, p.Z, p.M, opt.GravTheta, opt.GravEps, opt.GravG)
		for k, got := range [4][]float64{ax, ay, az, pot} {
			for i := range got {
				if got[i] != want[k][i] {
					t.Fatalf("GOMAXPROCS %d: component %d of particle %d is %v, the serial group loop gives %v", procs, k, i, got[i], want[k][i])
				}
			}
		}
	}
}

// TestAllocationsDoNotGrowWithN: the tree is a fixed number of slices and
// each worker's lists a fixed number more, whatever the particle count (the
// pointer tree made one heap object per node and per octant bucket). The
// allowance is for append doublings of the group index and the lists.
func TestAllocationsDoNotGrowWithN(t *testing.T) {
	allocs := func(side int) float64 {
		p, opt := initcond.Evrard(initcond.DefaultEvrard(side))
		return testing.AllocsPerRun(3, func() {
			Build(p.X, p.Y, p.Z, p.M, opt.GravTheta, opt.GravEps, opt.GravG).AccelerationsInto(p.AX, p.AY, p.AZ, nil)
		})
	}
	small, large := allocs(20), allocs(30)
	t.Logf("Build + AccelerationsInto: %.0f allocations at side 20, %.0f at side 30", small, large)
	if large > small+16 {
		t.Errorf("%.0f allocations at side 30, %.0f at side 20: want no more than 16 apart", large, small)
	}
}

// FuzzGravityShapes drives the tree over degenerate particle sets — none,
// one, two, coincident points that reach the depth cap, a plane, clumps a
// million lengths apart — at any opening angle, softened or not, and holds
// it to direct summation: exactly where nothing is far enough to be a
// multipole, within the multipole error otherwise.
func FuzzGravityShapes(f *testing.F) {
	for shape := uint8(0); shape < 6; shape++ {
		f.Add(shape, uint8(40), uint8(5), uint8(1), uint64(shape)+1)
	}
	f.Add(uint8(3), uint8(17), uint8(10), uint8(0), uint64(9))  // 17 coincident points, θ = 1, unsoftened
	f.Add(uint8(3), uint8(40), uint8(10), uint8(0), uint64(3))  // … among 40: the largest truncation error met
	f.Add(uint8(5), uint8(200), uint8(9), uint8(0), uint64(11)) // two clumps, 1e6 apart
	f.Fuzz(func(t *testing.T, shape, count, theta10, eps100 uint8, seed uint64) {
		n := int(count)
		switch shape % 6 {
		case 0:
			n = 0
		case 1:
			n = 1
		case 2:
			n = 2
		}
		x, y, z, m := randomCluster(n, seed)
		for i := 0; i < n; i++ {
			switch shape % 6 {
			case 3: // the first 17 coincide: a leaf over leafCap at the depth cap
				if i < 17 {
					x[i], y[i], z[i] = x[0], y[0], z[0]
				}
			case 4: // a plane: four of every node's octants stay empty
				z[i] = 0
			case 5: // two clumps far apart: a long chain of one-child nodes
				if i%2 == 1 {
					x[i] += 1e6
				}
			}
		}
		theta, eps := float64(theta10%11)/10, float64(eps100%4)/100
		ax, ay, az, pot := treeSum(x, y, z, m, theta, eps, 1)
		bx, by, bz, bpot := directSum(x, y, z, m, eps, 1)
		for i := 0; i < n; i++ {
			for _, v := range []float64{ax[i], ay[i], az[i], pot[i]} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("particle %d of %d: (ax, ay, az, pot) = (%v, %v, %v, %v)", i, n, ax[i], ay[i], az[i], pot[i])
				}
			}
		}
		if n < 2 {
			return
		}
		mean, _, worstPot := forceErrors(ax, ay, az, pot, bx, by, bz, bpot)
		tol := 0.1 * theta * theta // octupole truncation; the pointer tree read 0.051 at θ = 1 on seed 3 of shape 3
		if n <= leafCap || theta == 0 {
			tol = 1e-12 // one leaf, or nothing ever accepted: only the sum order differs
		}
		if mean > tol || worstPot > tol {
			t.Errorf("n = %d, θ = %v, ε = %v: mean force error %.3g, worst potential error %.3g, want ≤ %g", n, theta, eps, mean, worstPot, tol)
		}
	})
}

// BenchmarkGravityTree measures Barnes–Hut tree build + traversal on the
// evrard30 benchmark workload's initial state, and reports what the
// traversal's cost is made of: multipole and direct terms summed per target.
func BenchmarkGravityTree(b *testing.B) {
	p, opt := initcond.Evrard(initcond.DefaultEvrard(30))
	pot := make([]float64, p.N)
	var tree *Tree
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree = Build(p.X, p.Y, p.Z, p.M, opt.GravTheta, opt.GravEps, opt.GravG)
		tree.AccelerationsInto(p.AX, p.AY, p.AZ, pot)
	}
	m2p, p2p := tree.interactionCounts()
	b.ReportMetric(float64(p.N), "particles")
	b.ReportMetric(float64(m2p)/float64(p.N), "m2p/target")
	b.ReportMetric(float64(p2p)/float64(p.N), "p2p/target")
}
