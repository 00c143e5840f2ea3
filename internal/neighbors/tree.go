package neighbors

import (
	"math"
	"sort"

	"sphenergy/internal/cornerstone"
	"sphenergy/internal/sfc"
)

// TreeSearch is the octree-based neighbor search: particles are sorted
// along the SFC, a cornerstone octree is built over their keys, and queries
// walk the linked octree pruning nodes geometrically. This is the search
// structure SPH-EXA itself uses. The SPH pipeline runs on the cell grid
// (Grid); the tree is the independent Searcher the tests cross-check the
// grid's neighbor sets against, and bench_test.go compares their costs.
type TreeSearch struct {
	box    sfc.Box
	tree   cornerstone.Tree
	linked *cornerstone.LinkedOctree

	// Particle storage in SFC order.
	order   []int32 // sorted position -> original particle index
	x, y, z []float64
	// leafStart[i] is the offset of leaf i's particles in order.
	leafStart []int32
}

// BuildTree constructs the search structure; bucketSize controls the leaf
// particle count (64 is a good default).
func BuildTree(box sfc.Box, x, y, z []float64, bucketSize int) *TreeSearch {
	n := len(x)
	keys := make([]sfc.Key, n)
	for i := 0; i < n; i++ {
		keys[i] = box.KeyOf(x[i], y[i], z[i])
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	sortedKeys := make([]sfc.Key, n)
	for i, o := range order {
		sortedKeys[i] = keys[o]
	}
	tree := cornerstone.Build(sortedKeys, bucketSize)
	counts := tree.NodeCounts(sortedKeys)
	linked, err := cornerstone.BuildLinked(tree, counts)
	if err != nil {
		panic("neighbors: " + err.Error()) // Build always yields a valid tree
	}
	leafStart := make([]int32, tree.NumLeaves()+1)
	for i, c := range counts {
		leafStart[i+1] = leafStart[i] + int32(c)
	}
	return &TreeSearch{
		box: box, tree: tree, linked: linked,
		order: order, x: x, y: y, z: z,
		leafStart: leafStart,
	}
}

// ForEachNeighbor invokes fn for every particle j != i within radius of
// particle i, with the same callback contract as Grid.ForEachNeighbor.
func (t *TreeSearch) ForEachNeighbor(i int, radius float64, fn func(j int, dx, dy, dz, dist float64)) {
	r2max := radius * radius
	cx, cy, cz := t.x[i], t.y[i], t.z[i]
	t.linked.Walk(func(_ int, n cornerstone.OctreeNode) bool {
		lo, hi := cornerstone.NodeBounds(t.box, n.Start, n.End)
		if !cornerstone.SphereOverlapsBounds(t.box, cx, cy, cz, radius, lo, hi) {
			return false
		}
		if !n.IsLeaf() {
			return true
		}
		for s := t.leafStart[n.LeafIndex]; s < t.leafStart[n.LeafIndex+1]; s++ {
			j := int(t.order[s])
			if j == i {
				continue
			}
			dx := MinImage(cx-t.x[j], t.box.Lx(), t.box.PBCx)
			dy := MinImage(cy-t.y[j], t.box.Ly(), t.box.PBCy)
			dz := MinImage(cz-t.z[j], t.box.Lz(), t.box.PBCz)
			r2 := dx*dx + dy*dy + dz*dz
			if r2 < r2max {
				fn(j, dx, dy, dz, math.Sqrt(r2))
			}
		}
		return false
	})
}

// Neighbors collects neighbor indices (diagnostics path).
func (t *TreeSearch) Neighbors(i int, radius float64) []int {
	var out []int
	t.ForEachNeighbor(i, radius, func(j int, _, _, _, _ float64) {
		out = append(out, j)
	})
	return out
}

// CountNeighbors returns the neighbor count of particle i within radius.
func (t *TreeSearch) CountNeighbors(i int, radius float64) int {
	n := 0
	t.ForEachNeighbor(i, radius, func(int, float64, float64, float64, float64) { n++ })
	return n
}

// NumLeaves exposes the underlying tree size for diagnostics.
func (t *TreeSearch) NumLeaves() int { return t.tree.NumLeaves() }
