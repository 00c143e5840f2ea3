package sph

import (
	"math"
	"slices"
	"sync"

	"sphenergy/internal/neighbors"
	"sphenergy/internal/par"
)

// Verlet-skin candidate reuse. A rebuild gathers every pair within
// R = (1+Skin)·2·hGrowthCap·h of each other, h the larger of its two
// smoothing lengths, into the half candidate list (NeighborList.CandIdx) and
// later steps reuse it: a refresh recomputes the cached pairs' distances and
// admits from them by the current supports, producing the list a fresh
// gather over the same pair set would (both run buildList's sweeps). What
// lies between a particle's support and R is spent on drift alone, and the
// cache is proved complete in two phases, each when its radius is known:
// before the pass for the supports the particles arrive with (skinValid),
// after its counts for a support the h update has just grown
// (updateSmoothing). A rebuild is forced when either fails, when the
// RebuildEvery cadence expires, when a refresh overflows ngmax, or when an
// SFC reorder has invalidated the indices. Skin = 0 and RebuildEvery = 1
// both rebuild on every step.

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
	case !nl.hasRefs(s.P.N):
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

// drift is how far particle i stands from its reference position.
func (s *State) drift(i int) float64 {
	p, nl, box := s.P, s.List, s.Opt.Box
	dx := neighbors.MinImage(p.X[i]-nl.RefX[i], box.Lx(), box.PBCx)
	dy := neighbors.MinImage(p.Y[i]-nl.RefY[i], box.Ly(), box.PBCy)
	dz := neighbors.MinImage(p.Z[i]-nl.RefZ[i], box.Lz(), box.PBCz)
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// driftRounding is the allowance both drift criteria make for the rounding
// of their own arithmetic, relative to maxH, the step's largest smoothing
// length.
func driftRounding(maxH float64) float64 { return 1e-12 * (2 * hGrowthCap * maxH) }

// skinSlack is the one statement of the skin criterion. The candidates hold
// every pair within R_i = candRadius(RefH_i) of particle i's reference
// position (a pair is gathered out to the larger of its two radii); i has
// drifted d_i from there, and asks whether they still hold every j within a
// support 2h of where it is now. Such a j was within 2h + d_i + d_j of i at
// build time, so they do while
//
//	slack_i = R_i − d_i − 2h  ≥  max_j d_j
//
// which is how both phases use it. The slack is returned less the rounding
// allowance, with d_i.
func (s *State) skinSlack(i int, h, maxH float64) (slack, drift float64) {
	drift = s.drift(i)
	return candRadius(1+s.Opt.skin(), s.List.RefH[i]) - drift - 2*h - driftRounding(maxH), drift
}

// skinValid is the first phase: whether the cached candidates cover the
// support every particle arrives with, min_i slack_i ≥ max_j d_j at the
// current smoothing lengths. It says nothing of the supports this step's h
// update will grow — a particle whose h rises spends its own slack, which
// updateSmoothing checks row by row against the maximum drift returned here.
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

// candRadius is how far a particle of smoothing length h gathers its
// candidates: the widest support one step can leave it with, 2·hGrowthCap·h,
// inflated by the skin factor sk = 1 + Skin.
func candRadius(sk, h float64) float64 { return sk * (2 * hGrowthCap * h) }

// candShells is the number of distance shells an owner's candidates are
// binned into by q = dist_ref²: shell 0 holds q < (2·RefH)² — the pairs
// inside the owner's reference support, which every step streams — and the
// others cut [(2·RefH)², R²) evenly, which spares the binning a square root
// per candidate. Finer shells stream less beyond the bound (half a shell on
// average, ≈ 3 candidates of ≈ 140 at 16) and cost candShells offsets per
// particle.
const candShells = 16

// shellScale is the number of outer shells per unit of q for an owner of
// reference smoothing length h.
func shellScale(sk, h float64) float64 {
	r := candRadius(sk, h)
	return (candShells - 1) / (r*r - support2(h))
}

// shellOf is the shell of a pair q beyond the owner's reference support,
// q = dist_ref² − (2·RefH)², under the owner's scale. It does not decrease
// with q, which is the whole of the prefix argument: the pairs below a bound
// lie in shells 0 … shellOf(bound). The sign of q takes no branch: a quarter
// of the candidates lie inside the support, in no order.
func shellOf(q, scale float64) int {
	f := q*scale + 1
	if !(f < candShells-1) {
		return candShells - 1 // the last shell, and whatever a degenerate scale makes of q
	}
	return max(int(f), 0)
}

// gatherCandidates fills the candidate shells from positions and smoothing
// lengths — the particles' on a rebuild, the checkpointed references' on a
// restart, which is why the two agree bit for bit — and returns the grid it
// searched. The grid's cells are half the largest candidate radius: a query
// then tests ≈ 2.7 particles per particle in range where radius-sized cells
// test 6, and Grid.Gather walks x-adjacent cells as one run, so the finer
// grid costs no more loop set-up. Each query keeps the pairs its particle
// owns and bins them while they are in cache.
func (s *State) gatherCandidates(x, y, z, h []float64) *neighbors.Grid {
	sk := 1 + s.Opt.skin()
	grid := s.buildGrid(x, y, z, candRadius(sk, slices.Max(h))/2)
	chunks := s.eachRange(len(h), func(cb *listChunk) {
		cb.idx, cb.end = cb.idx[:0], cb.end[:0]
		cb.cand.Tests, cb.cand.Runs = 0, 0
		for i := cb.lo; i < cb.hi; i++ {
			cb.cand.Idx, cb.cand.R2 = cb.cand.Idx[:0], cb.cand.R2[:0]
			grid.Gather(&cb.cand, i, candRadius(sk, h[i]), h)
			cb.binShells(support2(h[i]), shellScale(sk, h[i]))
		}
	})
	s.List.mergeCands(chunks, len(h))
	for _, cb := range chunks {
		s.work.gatherTests += cb.cand.Tests
		s.work.gatherRuns += cb.cand.Runs
	}
	s.work.stored += len(s.List.CandIdx)
	releaseChunks(chunks)
	return grid
}

// binShells appends the query in cb.cand to the chunk's candidates, stably
// sorted by shell — a counting sort on r² beyond the owner's support² — with
// the candShells ends of the owner's segment.
func (cb *listChunk) binShells(support2, scale float64) {
	m := len(cb.cand.Idx)
	cb.key = ensure(cb.key, m)
	var count [candShells]int32
	for k, r2 := range cb.cand.R2 {
		sh := shellOf(r2-support2, scale)
		cb.key[k] = uint8(sh)
		count[sh]++
	}
	at := int32(len(cb.idx))
	cb.idx = slices.Grow(cb.idx, m)[:int(at)+m]
	for sh, c := range count {
		count[sh] = at
		at += c
		cb.end = append(cb.end, at)
	}
	for k, j := range cb.cand.Idx {
		sh := cb.key[k]
		cb.idx[count[sh]] = j
		count[sh]++
	}
}

// mergeCands concatenates the chunks' binned candidates, in range order,
// into CandIdx, and their shell ends into ShellOff.
func (nl *NeighborList) mergeCands(chunks []*listChunk, n int) {
	nl.ShellOff = ensure(nl.ShellOff, n*candShells+1)
	nl.ShellOff[0] = 0
	base := int32(0)
	for _, cb := range chunks {
		off := nl.ShellOff[cb.lo*candShells+1:]
		for t, end := range cb.end {
			off[t] = base + end
		}
		base += int32(len(cb.idx))
	}
	nl.CandIdx = fit(nl.CandIdx, int(base))
	for _, cb := range chunks {
		copy(nl.CandIdx[nl.ShellOff[cb.lo*candShells]:], cb.idx)
	}
}

// streamCandidates is the sweep rebuild and refresh share. Every owner
// streams the shells that start below its bound d_i + maxDrift + 2·G (see
// NeighborList; as the shells are cut in r², the bound is taken there as
// (2·RefH_i + bound)²), where G provides for smoothing lengths up to grow·h:
// the supports the particles arrive with, which the neighbor counts are
// taken over, and whatever the update makes of them, unless it grows one
// further. The chunks come back with the survivors and the counts.
func (s *State) streamCandidates(maxH, maxDrift, grow float64) []*listChunk {
	p, nl, n := s.P, s.List, s.P.N
	sk := 1 + s.Opt.skin()
	geo := s.geom()
	g := par.Reduce(n, func(lo, hi int) float64 {
		most := math.Inf(-1)
		for i := lo; i < hi; i++ {
			most = max(most, grow*p.H[i]-nl.RefH[i])
		}
		return most
	}, math.Max)
	beyond := maxDrift + 2*g + driftRounding(maxH)
	chunks := s.eachRange(n, func(cb *listChunk) {
		cb.acc = ensure(cb.acc, n)
		clear(cb.acc)
		cb.survEnd, cb.survIdx, cb.survR2 = cb.survEnd[:0], cb.survIdx[:0], cb.survR2[:0]
		cb.streamed, cb.shells = 0, 0
		for i := cb.lo; i < cb.hi; i++ {
			ref := nl.RefH[i]
			reach := max(2*ref+s.drift(i)+beyond, 0)
			shells := 1 + shellOf(reach*reach-support2(ref), shellScale(sk, ref))
			cand := nl.CandIdx[nl.ShellOff[i*candShells]:nl.ShellOff[i*candShells+shells]]
			cb.streamed += len(cand)
			cb.shells += shells
			cb.streamOwner(p, i, cand, geo, grow)
		}
	})
	for _, cb := range chunks {
		s.work.streamed += cb.streamed
		s.work.shells += cb.shells
		s.work.survivors += len(cb.survIdx)
	}
	return chunks
}

// streamOwner computes the squared minimum-image distance from owner i to
// each of cand once, keeps index and r² of those a support of either
// endpoint could hold once grown by the factor grow — written
// unconditionally, kept by advancing the cursor — and counts, over the few
// kept, the pairs inside the supports the two arrive with: the owner's into
// its own slot of acc, the other endpoint's into that one's.
func (cb *listChunk) streamOwner(p *Particles, i int, cand []int32, g boxGeom, grow float64) {
	px, py, pz, h := p.X, p.Y, p.Z, p.H
	xi, yi, zi, hi := px[i], py[i], pz[i], h[i]
	from := len(cb.survIdx)
	idx := slices.Grow(cb.survIdx, len(cand))[:from+len(cand)]
	r2 := slices.Grow(cb.survR2, len(cand))[:from+len(cand)]
	w := from
	// grow·h is the very product updateSmoothing compares the new h with, so
	// a support it lets pass is inside these bounds to the bit.
	reachI := support2(grow * hi)
	for _, j := range cand {
		dx, dy, dz := neighbors.Fold(xi-px[j], g.hx, g.lx), neighbors.Fold(yi-py[j], g.hy, g.ly), neighbors.Fold(zi-pz[j], g.hz, g.lz)
		v := dx*dx + dy*dy + dz*dz
		idx[w], r2[w] = j, v
		inI, inJ := 0, 0
		if v < reachI {
			inI = 1
		}
		if v < support2(grow*h[j]) {
			inJ = 1
		}
		w += inI | inJ
	}
	cb.survIdx, cb.survR2 = idx[:w], r2[:w]
	cb.survEnd = append(cb.survEnd, int32(w))
	own, supI := int32(0), support2(hi)
	for k := from; k < w; k++ {
		v, j := r2[k], idx[k]
		if v < supI {
			own++
		}
		if v < support2(h[j]) {
			cb.acc[j]++
		}
	}
	cb.acc[i] += own
}
