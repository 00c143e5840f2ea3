package sph

import (
	"sort"

	"sphenergy/internal/par"
)

// ReorderBySFC re-sorts the particle arrays along the Morton space-filling
// curve of the simulation box. Spatially adjacent particles end up adjacent
// in memory, so the neighbor list's indexed gathers stay cache-local even
// after turbulent mixing has scrambled the initial lattice order. Ties (and
// the sort itself) break on the original index, making the permutation
// deterministic. Physics is order-independent up to floating-point
// summation order, which the equivalence tests bound.
func (s *State) ReorderBySFC() {
	p := s.P
	box := s.Opt.Box
	par.For(p.N, func(i int) {
		p.Keys[i] = box.KeyOf(p.X[i], p.Y[i], p.Z[i])
	})
	if cap(s.perm) < p.N {
		s.perm = make([]int, p.N)
	}
	perm := s.perm[:p.N]
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool {
		ka, kb := p.Keys[perm[a]], p.Keys[perm[b]]
		if ka != kb {
			return ka < kb
		}
		return perm[a] < perm[b]
	})
	p.Reorder(perm)
	// Indices in any previously built neighbor structure are stale now. The
	// list keeps its buffers for the rebuild that follows.
	s.Grid = nil
	if s.List != nil {
		s.List.invalidate()
	}
}
