package sph

import (
	"math"
	"sync"

	"sphenergy/internal/neighbors"
	"sphenergy/internal/par"
)

// Verlet-skin candidate reuse. A rebuild gathers every particle's candidates
// out to R = (1+Skin)·2·hGrowthCap·h around its position and later steps
// reuse them: a refresh recomputes the cached pairs' displacements and
// admits from them by the current supports, producing the list a fresh
// gather over the same pair set would (both run buildList's row pass). What
// lies between a particle's support and R is spent on drift alone, and the
// cache is proved complete in two phases, each when its radius is known:
// before the pass for the supports the particles arrive with (skinValid),
// inside it for a support the h update has just grown (buildList). A
// rebuild is forced when either fails, when the RebuildEvery cadence
// expires, when a refresh overflows ngmax, or when an SFC reorder has
// invalidated the indices. Skin = 0 and RebuildEvery = 1 both rebuild on
// every step.

// rebuildCause is FindNeighbors' decision, free of side effects: the
// NeighborEvent kind of the rebuild the current positions call for, or ""
// when the cached candidates still serve — then with the largest drift of
// any particle, which the refresh needs for its own check. RunStep also
// keys the SFC reorder cadence to the kind so a reorder — which invalidates
// the cached indices — rides along with a step that was going to rebuild
// regardless.
func (s *State) rebuildCause(maxH float64) (kind string, maxDrift float64) {
	nl := s.List
	switch {
	case nl == nil:
		return "init", 0
	case s.Opt.RebuildEvery > 0 && s.Step-nl.BuildStep >= s.Opt.RebuildEvery:
		return "cadence", 0
	case s.Opt.skin() <= 0:
		// Without a skin the candidates reach no further than the supports
		// they were gathered for; shrinking supports could keep such a
		// cache formally complete, but reusing it would reorder the rows
		// of a setting documented as rebuilding on every step.
		return "drift", 0
	}
	maxDrift, ok := s.skinValid(maxH)
	if !ok {
		return "drift", 0
	}
	return "", maxDrift
}

// skinSlack is the one statement of the skin criterion. Particle i's
// candidates are everything within R_i = candRadius(RefH_i) of its reference
// position; it has drifted d_i from there, and asks whether they still hold
// every j within a support 2h of where it is now. Such a j was within
// 2h + d_i + d_j of i at build time, so they do while
//
//	slack_i = R_i − d_i − 2h  ≥  max_j d_j
//
// which is how both phases use it. The slack is returned less a rounding
// allowance for the drift arithmetic (relative to maxH, the step's largest
// smoothing length), with d_i.
func (s *State) skinSlack(i int, h, maxH float64) (slack, drift float64) {
	p, nl, box := s.P, s.List, s.Opt.Box
	dx := neighbors.MinImage(p.X[i]-nl.RefX[i], box.Lx(), box.PBCx)
	dy := neighbors.MinImage(p.Y[i]-nl.RefY[i], box.Ly(), box.PBCy)
	dz := neighbors.MinImage(p.Z[i]-nl.RefZ[i], box.Lz(), box.PBCz)
	drift = math.Sqrt(dx*dx + dy*dy + dz*dz)
	return candRadius(1+s.Opt.skin(), nl.RefH[i]) - drift - 2*h - 1e-12*(2*hGrowthCap*maxH), drift
}

// skinValid is the first phase: whether the cached candidates cover the
// support every particle arrives with, min_i slack_i ≥ max_j d_j at the
// current smoothing lengths. It says nothing of the supports this step's h
// update will grow — a particle whose h rises spends its own slack, which
// buildList checks row by row against the maximum drift returned here.
func (s *State) skinValid(maxH float64) (maxDrift float64, ok bool) {
	p := s.P
	var mu sync.Mutex
	minSlack := math.Inf(1)
	par.ForChunked(p.N, func(lo, hi int) {
		localSlack, localDrift := math.Inf(1), 0.0
		for i := lo; i < hi; i++ {
			sl, d := s.skinSlack(i, p.H[i], maxH)
			localSlack = math.Min(localSlack, sl)
			localDrift = math.Max(localDrift, d)
		}
		mu.Lock()
		minSlack = math.Min(minSlack, localSlack)
		maxDrift = math.Max(maxDrift, localDrift)
		mu.Unlock()
	})
	return maxDrift, minSlack >= maxDrift
}

// boxGeom caches the box quantities of the minimum-image fold
// (neighbors.Fold): per axis the length and the fold distance.
type boxGeom struct {
	lx, ly, lz float64
	hx, hy, hz float64
}

func (s *State) geom() boxGeom {
	box := s.Opt.Box
	lx, ly, lz := box.Lx(), box.Ly(), box.Lz()
	return boxGeom{lx, ly, lz, neighbors.HalfFold(lx, box.PBCx), neighbors.HalfFold(ly, box.PBCy), neighbors.HalfFold(lz, box.PBCz)}
}

// streamRow fills the chunk's dense r² buffer with the squared
// minimum-image distance from particle i to each of its candidates and
// returns how many lie below bound. Dense in, dense out: the loop appends
// nothing and stores r² alone; displacements are recomputed for the few
// candidates admitRow keeps.
func (cb *listChunk) streamRow(p *Particles, i int, cand []int32, g boxGeom, bound float64) int {
	if cap(cb.cr2) < len(cand) {
		cb.cr2 = make([]float64, len(cand))
		cb.sel = make([]int32, len(cand))
	}
	r2 := cb.cr2[:len(cand)]
	px, py, pz := p.X, p.Y, p.Z
	xi, yi, zi := px[i], py[i], pz[i]
	cnt := 0
	for k, j := range cand {
		dx, dy, dz := neighbors.Fold(xi-px[j], g.hx, g.lx), neighbors.Fold(yi-py[j], g.hy, g.ly), neighbors.Fold(zi-pz[j], g.hz, g.lz)
		v := dx*dx + dy*dy + dz*dz
		r2[k] = v
		if v < bound {
			cnt++
		}
	}
	return cnt
}

// admitRow closes particle i's row with the candidates streamRow found
// below bound, in candidate order, cut at ngmax: their positions in the
// segment are compacted first (cursor advance, no branch), then only the
// survivors' displacements are recomputed. Returns the row's length.
func (cb *listChunk) admitRow(p *Particles, i int, cand []int32, g boxGeom, bound float64, ngmax int) int {
	r2, sel := cb.cr2[:len(cand)], cb.sel[:len(cand)]
	m := 0
	for k, v := range r2 {
		sel[m] = int32(k)
		if v < bound {
			m++
		}
	}
	if m > ngmax {
		cb.overflow++
		m = ngmax
	}
	px, py, pz := p.X, p.Y, p.Z
	xi, yi, zi := px[i], py[i], pz[i]
	for _, k := range sel[:m] {
		j := cand[k]
		cb.idx = append(cb.idx, j)
		cb.dx = append(cb.dx, neighbors.Fold(xi-px[j], g.hx, g.lx))
		cb.dy = append(cb.dy, neighbors.Fold(yi-py[j], g.hy, g.ly))
		cb.dz = append(cb.dz, neighbors.Fold(zi-pz[j], g.hz, g.lz))
		cb.r2 = append(cb.r2, r2[k])
	}
	cb.rowEnd = append(cb.rowEnd, int32(len(cb.idx)))
	return m
}
