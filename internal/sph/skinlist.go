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
// smoothing lengths, into the half candidate list (NeighborList.CandIdx) —
// each pair once, tested once, by the endpoint it lies ahead of in the
// gather's half stencil, binned by its distance in units of that larger h —
// and later steps reuse it: a refresh recomputes the cached pairs'
// distances and admits from them by the current supports, producing the
// list a fresh gather over the same pair set would (both run buildList's
// sweeps). What lies between a particle's support and R is spent on drift
// alone, and the cache is proved complete in two phases, each when its
// radius is known: before the pass for the supports the particles arrive
// with (skinValid), after its counts for a support the h update has just
// grown (updateSmoothing). A rebuild is forced when either fails, when a
// refresh overflows ngmax, or when an SFC reorder has invalidated the
// indices. Skin = 0 rebuilds on every step.

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
// allowance, with d_i. The allowance also covers the gather's admission
// test, r²·min(1/R_i², 1/R_j²) < 1 rather than r < max(R_i, R_j): the two
// can disagree on a pair within a few ulps of R only.
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
	par.Chunked(p.N, func(_, lo, hi int) {
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
// binned into, each pair by κ² = dist_ref²/M², M the larger reference
// smoothing length of the two: shell 0 holds κ² < 4 — the pairs inside the
// larger reference support, which every step streams — and the others cut
// [4, c²) evenly, c = candRadius(1+Skin, 1) the scale-free candidate radius,
// one scale for every owner, which spares the binning a square root per
// candidate. Finer shells stream less beyond the bound (half a shell on
// average, ≈ 3 candidates of ≈ 140 at 16) and cost candShells offsets per
// particle.
const candShells = 16

// shellScale is the number of outer shells per unit of κ².
func shellScale(sk float64) float64 {
	c := candRadius(sk, 1)
	return (candShells - 1) / (c*c - 4)
}

// shellOf is the shell of a pair q beyond the larger reference support, q =
// κ² − 4, under the scale. It does not decrease with q, which is the whole
// of the prefix argument: the pairs below a bound lie in shells 0 …
// shellOf(bound). Neither clamp takes a branch: a quarter of the candidates
// lie inside the support and a tenth in the last shell, in no order.
func shellOf(q, scale float64) int {
	return int(max(min(q*scale+1, candShells-1), 0))
}

// gatherCandidates fills the candidate shells from positions and smoothing
// lengths — the particles' on a rebuild, the checkpointed references' on a
// restart, which is why the two agree bit for bit — and returns the grid it
// searched. The grid's cells are half the largest candidate radius: a query
// then tests ≈ 2.7 particles per particle in range where radius-sized cells
// test 6, and Grid.Gather walks x-adjacent cells as one run and only the
// half of the window ahead of its particle, so the finer grid costs no more
// loop set-up and every pair is tested once. Each query keeps the pairs its
// particle owns and bins them while they are in cache.
func (s *State) gatherCandidates(x, y, z, h []float64) *neighbors.Grid {
	sk := 1 + s.Opt.skin()
	s.candR = ensure(s.candR, len(h))
	for i, hi := range h {
		s.candR[i] = candRadius(sk, hi)
	}
	grid := s.buildGrid(x, y, z, candRadius(sk, slices.Max(h))/2)
	grid.SetRadii(s.candR)
	c := candRadius(sk, 1)
	c2, scale := c*c, shellScale(sk)
	chunks := s.eachRange(len(h), func(cb *listChunk) {
		cb.idx, cb.end = cb.idx[:0], cb.end[:0]
		cb.cand.Tests, cb.cand.Runs = 0, 0
		for i := cb.lo; i < cb.hi; i++ {
			cb.cand.Idx, cb.cand.Key = cb.cand.Idx[:0], cb.cand.Key[:0]
			grid.Gather(&cb.cand, i)
			cb.binShells(c2, scale)
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
// sorted by shell — a counting sort on κ² = u·c², u the gather's key
// r²/max(R_i, R_j)² and c² the squared scale-free candidate radius, beyond
// the support's 4.
func (cb *listChunk) binShells(c2, scale float64) {
	m := len(cb.cand.Idx)
	cb.key = ensure(cb.key, m)
	key := cb.key
	var count [candShells]int32
	for k, u := range cb.cand.Key[:m] {
		sh := shellOf(u*c2-4, scale)
		key[k] = uint8(sh)
		count[sh]++
	}
	at := int32(len(cb.idx))
	cb.idx = slices.Grow(cb.idx, m)[:int(at)+m]
	for sh, c := range count {
		count[sh] = at
		at += c
		cb.end = append(cb.end, at)
	}
	idx := cb.idx
	for k, j := range cb.cand.Idx {
		sh := key[k]
		idx[count[sh]] = j
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
// streams the shells that start below its bound κ < 2 + (d_i + maxDrift +
// 2·G)/RefH_i (see NeighborList; as the shells are cut in κ², the bound is
// squared), where G provides for smoothing lengths up to grow·h:
// the supports the particles arrive with, which the neighbor counts are
// taken over, and whatever the update makes of them, unless it grows one
// further. The chunks come back with the survivors and the counts.
func (s *State) streamCandidates(maxH, maxDrift, grow float64) []*listChunk {
	p, nl, n := s.P, s.List, s.P.N
	scale := shellScale(1 + s.Opt.skin())
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
			// A negative margin is left at 0: divided by RefH_i rather than
			// by the pair's M it would cut deeper than the bound allows.
			reach := 2 + max(s.drift(i)+beyond, 0)/nl.RefH[i]
			shells := 1 + shellOf(reach*reach-4, scale)
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
