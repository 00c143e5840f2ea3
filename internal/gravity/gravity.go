// Package gravity implements Barnes–Hut tree gravity with monopole and
// quadrupole moments and Plummer softening, the self-gravity solver needed
// by the Evrard collapse workload.
//
// The tree is flat: Build partitions one permutation of the particles octant
// by octant, so every node owns a contiguous range of the permuted order, and
// stores the nodes breadth-first in one slice; nothing is allocated per node.
// The traversal is per group, not per particle: the targets are the highest
// nodes holding at most groupCap particles, and one walk per group applies
// the geometric opening criterion s/d < theta with d measured from a node's
// centre of mass to the group's bounding box, so that what it accepts is
// acceptable to every target in the group. Any node may be accepted, leaves
// included; the walk gathers the accepted moments and the particles of the
// leaves it had to open into two dense lists, which every target of the group
// sums in list order: the result does not depend on the worker count.
package gravity

import (
	"math"
	"slices"
	"sync/atomic"

	"sphenergy/internal/par"
)

const (
	leafCap  = 16 // a node holding more is split, down to maxDepth
	groupCap = 32 // the targets of one walk: the highest nodes holding no more
	maxDepth = 48
)

// body is one particle in the tree's permuted order.
type body struct{ x, y, z, m float64 }

// moment is a node's mass, centre of mass and traceless quadrupole about it.
type moment struct {
	m, x, y, z                   float64
	qxx, qxy, qxz, qyy, qyz, qzz float64
}

// node owns body[start:end]; its nchild children are nodes first, first+1, …;
// a leaf has none.
type node struct {
	start, end, first, nchild int32
	size2                     float64 // squared edge length
	moment
}

// Tree is a built gravity octree.
type Tree struct {
	perm []int32 // perm[k] is the caller's index of the k-th body
	body []body

	nodes  []node  // breadth-first: parents before children, siblings adjacent
	groups []int32 // the target nodes, in node order

	// Theta is the opening angle; Eps the Plummer softening length; G the
	// gravitational constant.
	Theta, Eps, G float64
}

// Build constructs the octree for the given particles.
func Build(x, y, z, m []float64, theta, eps, g float64) *Tree {
	t := &Tree{Theta: theta, Eps: eps, G: g}
	n := len(x)
	if n == 0 {
		return t
	}
	// Bounding cube.
	minX, maxX := slices.Min(x), slices.Max(x)
	minY, maxY := slices.Min(y), slices.Max(y)
	minZ, maxZ := slices.Min(z), slices.Max(z)
	rootHalf := max(maxX-minX, maxY-minY, maxZ-minZ)/2 + 1e-12

	// Sized so that the appends below do not reallocate on any particle
	// distribution met so far (≈ n/5 nodes on Evrard); they may.
	t.nodes = make([]node, 0, n/2+64)
	type cell struct{ cx, cy, cz, half float64 }
	cells := make([]cell, 0, n/2+64) // geometric centres, needed only to split
	add := func(s, e int32, c cell) {
		t.nodes = append(t.nodes, node{start: s, end: e, size2: 4 * c.half * c.half})
		cells = append(cells, c)
	}
	add(0, int32(n), cell{(minX + maxX) / 2, (minY + maxY) / 2, (minZ + maxZ) / 2, rootHalf})

	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	tmp := make([]int32, n)
	oct := make([]uint8, n)
	minHalf := rootHalf / (1 << maxDepth) // halving is exact: this is depth maxDepth
	for i := 0; i < len(cells); i++ {
		s, e, c := t.nodes[i].start, t.nodes[i].end, cells[i]
		if e-s <= leafCap || c.half <= minHalf {
			continue
		}
		// Stable counting sort of perm[s:e] by octant.
		var cnt [8]int32
		for k := s; k < e; k++ {
			p, o := perm[k], uint8(0)
			if x[p] >= c.cx {
				o |= 1
			}
			if y[p] >= c.cy {
				o |= 2
			}
			if z[p] >= c.cz {
				o |= 4
			}
			oct[k] = o
			cnt[o]++
		}
		// Each non-empty octant is a child, and where its run of perm starts.
		t.nodes[i].first = int32(len(cells))
		h := [2]float64{-c.half / 2, c.half / 2}
		var off [8]int32
		pos := s
		for o, k := range cnt {
			off[o] = pos
			if k > 0 {
				add(pos, pos+k, cell{c.cx + h[o&1], c.cy + h[o>>1&1], c.cz + h[o>>2&1], h[1]})
				t.nodes[i].nchild++
			}
			pos += k
		}
		for k := s; k < e; k++ {
			tmp[off[oct[k]]] = perm[k]
			off[oct[k]]++
		}
		copy(perm[s:e], tmp[s:e])
	}

	t.perm = perm
	t.body = make([]body, n)
	for k, p := range perm {
		t.body[k] = body{x[p], y[p], z[p], m[p]}
	}
	t.computeMoments()

	// The groups: every node that is a leaf or small enough, and under no
	// other such node.
	covered := make([]bool, len(cells))
	for i, n := range t.nodes {
		in := covered[i]
		if !in && (n.nchild == 0 || n.end-n.start <= groupCap) {
			t.groups = append(t.groups, int32(i))
			in = true
		}
		for c := n.first; c < n.first+n.nchild; c++ {
			covered[c] = in
		}
	}
	return t
}

// computeMoments fills the moments in one reverse sweep: children follow
// their parent in node order, so they are complete when it is reached.
func (t *Tree) computeMoments() {
	for i := len(t.nodes) - 1; i >= 0; i-- {
		// A leaf sums its bodies, any other node its children.
		n := &t.nodes[i]
		kids := t.nodes[n.first : n.first+n.nchild]
		bodies := t.body[n.start:n.end]
		if len(kids) > 0 {
			bodies = nil
		}
		mo := &n.moment
		for _, b := range bodies {
			mo.addMass(b.x, b.y, b.z, b.m)
		}
		for _, c := range kids {
			mo.addMass(c.x, c.y, c.z, c.m)
		}
		if mo.m > 0 {
			mo.x /= mo.m
			mo.y /= mo.m
			mo.z /= mo.m
		}
		// Quadrupole about the center of mass.
		for _, b := range bodies {
			mo.addPoint(b.x, b.y, b.z, b.m)
		}
		for _, c := range kids {
			// Child quadrupole shifted to this node's COM (parallel axis).
			mo.addPoint(c.x, c.y, c.z, c.m)
			mo.qxx += c.qxx
			mo.qxy += c.qxy
			mo.qxz += c.qxz
			mo.qyy += c.qyy
			mo.qyz += c.qyz
			mo.qzz += c.qzz
		}
	}
}

func (mo *moment) addMass(px, py, pz, m float64) {
	mo.m += m
	mo.x += m * px
	mo.y += m * py
	mo.z += m * pz
}

func (mo *moment) addPoint(px, py, pz, m float64) {
	dx, dy, dz := px-mo.x, py-mo.y, pz-mo.z
	r2 := dx*dx + dy*dy + dz*dz
	mo.qxx += m * (3*dx*dx - r2)
	mo.qyy += m * (3*dy*dy - r2)
	mo.qzz += m * (3*dz*dz - r2)
	mo.qxy += m * 3 * dx * dy
	mo.qxz += m * 3 * dx * dz
	mo.qyz += m * 3 * dy * dz
}

// lists is one worker's scratch: what the group being walked sums.
type lists struct {
	stack  []int32
	far    []moment // accepted nodes
	direct []body   // the particles of opened leaves
}

// AccelerationsInto computes gravitational accelerations and potentials for
// every particle, adding into ax/ay/az and storing potential (per unit mass)
// in pot (pot may be nil).
func (t *Tree) AccelerationsInto(ax, ay, az, pot []float64) {
	var next atomic.Int64 // groups are drawn one at a time, in order
	par.Tasks(min(len(t.groups), par.MaxWorkers()), func(int) {
		var l lists
		for i := int(next.Add(1)) - 1; i < len(t.groups); i = int(next.Add(1)) - 1 {
			t.groupAccel(t.groups[i], &l, ax, ay, az, pot)
		}
	})
}

// groupAccel walks the tree for group g and sums its lists, then the rest
// of the group, for each of its particles.
func (t *Tree) groupAccel(g int32, l *lists, ax, ay, az, pot []float64) {
	t.walk(g, l)
	s, e := t.nodes[g].start, t.nodes[g].end
	eps2 := t.Eps * t.Eps
	for k := s; k < e; k++ {
		b := t.body[k]
		gx, gy, gz, p := sumFar(l.far, b, eps2)
		for _, near := range [][]body{l.direct, t.body[s:k], t.body[k+1 : e]} {
			dgx, dgy, dgz, dp := sumDirect(near, b, eps2)
			gx += dgx
			gy += dgy
			gz += dgz
			p += dp
		}
		i := t.perm[k]
		ax[i] += t.G * gx
		ay[i] += t.G * gy
		az[i] += t.G * gz
		if pot != nil {
			pot[i] = t.G * p
		}
	}
}

// walk fills l with group g's interaction lists: every particle outside the
// group is in exactly one accepted node or once in l.direct.
func (t *Tree) walk(g int32, l *lists) {
	// The group's tight bounding box.
	gs, ge := t.nodes[g].start, t.nodes[g].end
	lo := t.body[gs]
	hi := lo
	for _, b := range t.body[gs+1 : ge] {
		lo.x, hi.x = min(lo.x, b.x), max(hi.x, b.x)
		lo.y, hi.y = min(lo.y, b.y), max(hi.y, b.y)
		lo.z, hi.z = min(lo.z, b.z), max(hi.z, b.z)
	}
	theta2 := t.Theta * t.Theta
	l.far, l.direct = l.far[:0], l.direct[:0]
	l.stack = append(l.stack[:0], 0)
	for len(l.stack) > 0 {
		i := l.stack[len(l.stack)-1]
		l.stack = l.stack[:len(l.stack)-1]
		if i == g {
			continue
		}
		n := &t.nodes[i]
		// A node holding the group is opened whatever the geometry says: its
		// moments include the targets themselves.
		if n.start > gs || ge > n.end {
			// Distance from the node's centre of mass to the box, zero inside.
			dx := max(0, lo.x-n.x, n.x-hi.x)
			dy := max(0, lo.y-n.y, n.y-hi.y)
			dz := max(0, lo.z-n.z, n.z-hi.z)
			if n.size2 < theta2*(dx*dx+dy*dy+dz*dz) {
				l.far = append(l.far, n.moment)
				continue
			}
			if n.nchild == 0 {
				l.direct = append(l.direct, t.body[n.start:n.end]...)
				continue
			}
		}
		for c := n.first + n.nchild - 1; c >= n.first; c-- {
			l.stack = append(l.stack, c)
		}
	}
}

// sumDirect returns the un-scaled (G=1) acceleration and potential at b due
// to the point masses in list. A pair at zero softened distance exerts no
// force and is skipped.
func sumDirect(list []body, b body, eps2 float64) (gx, gy, gz, pot float64) {
	for _, s := range list {
		dx, dy, dz := s.x-b.x, s.y-b.y, s.z-b.z
		r2 := dx*dx + dy*dy + dz*dz + eps2
		if r2 == 0 {
			continue
		}
		inv := 1 / math.Sqrt(r2)
		inv3 := inv * inv * inv
		gx += s.m * dx * inv3
		gy += s.m * dy * inv3
		gz += s.m * dz * inv3
		pot -= s.m * inv
	}
	return
}

// sumFar returns the same for the monopole + quadrupole fields of list.
func sumFar(list []moment, b body, eps2 float64) (gx, gy, gz, pot float64) {
	for i := range list {
		n := &list[i]
		dx, dy, dz := n.x-b.x, n.y-b.y, n.z-b.z
		inv := 1 / math.Sqrt(dx*dx+dy*dy+dz*dz+eps2)
		inv2 := inv * inv
		inv3 := inv2 * inv
		inv5 := inv3 * inv2
		inv7 := inv5 * inv2
		// Quadrupole: phi_Q = -(1/2) * (r·Q·r) / r^5 ... using the traceless Q.
		qx := n.qxx*dx + n.qxy*dy + n.qxz*dz
		qy := n.qxy*dx + n.qyy*dy + n.qyz*dz
		qz := n.qxz*dx + n.qyz*dy + n.qzz*dz
		rqr := dx*qx + dy*qy + dz*qz
		pot -= n.m*inv + 0.5*rqr*inv5
		// Monopole m r / r^3, and grad of phi_Q:
		// dphi/dx = -(Qr)_x / r^5 + (5/2) rqr x / r^7.
		radial := n.m*inv3 + 2.5*rqr*inv7
		gx += radial*dx - qx*inv5
		gy += radial*dy - qy*inv5
		gz += radial*dz - qz*inv5
	}
	return
}

// TotalMass returns the mass accounted at the root (a consistency check).
func (t *Tree) TotalMass() float64 {
	if len(t.nodes) == 0 {
		return 0
	}
	return t.nodes[0].m
}
