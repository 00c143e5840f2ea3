package sph

import (
	"math"
	"sync"

	"sphenergy/internal/neighbors"
	"sphenergy/internal/par"
)

// Verlet-skin candidate reuse. A rebuild gathers candidates at the inflated
// cutoff (1+Skin)·2·hGrowthCap·h and later steps reuse them: a refresh
// recomputes the cached pairs' displacements and re-filters them by the
// current cutoff, producing a list bit-identical to what a fresh gather
// over the same pair set would have built (both run through buildList). A
// rebuild is forced when accumulated drift could let an unseen pair enter
// some support sphere (skinValid), when the RebuildEvery cadence expires,
// when a refresh overflows ngmax, or when an SFC reorder has invalidated
// the indices. Skin = 0 and RebuildEvery = 1 both rebuild on every step.

// rebuildCause is FindNeighbors' decision, free of side effects: the
// NeighborEvent kind of the rebuild the current positions call for, or ""
// when the cached candidates still serve. RunStep also keys the SFC reorder
// cadence to it so a reorder — which invalidates the cached indices — rides
// along with a step that was going to rebuild regardless.
func (s *State) rebuildCause(maxH float64) string {
	nl := s.List
	switch {
	case nl == nil:
		return "init"
	case s.Opt.RebuildEvery > 0 && s.Step-nl.BuildStep >= s.Opt.RebuildEvery:
		return "cadence"
	case s.Opt.skin() <= 0 || !s.skinValid(maxH):
		// Without a skin the candidates reach no further than the supports
		// they were gathered for; shrinking supports could keep such a
		// cache formally complete, but reusing it would reorder the rows
		// of a setting documented as rebuilding on every step.
		return "drift"
	}
	return ""
}

// skinValid reports whether the cached candidate list still covers every
// support sphere at the current positions. Particle i's candidates were
// gathered out to R_i = (1+Skin)·2·hGrowthCap·RefH_i around its reference
// position; this step's gather needs every j within B_i = 2·hGrowthCap·h_i
// of the current position. Writing d_i for i's minimum-image drift from its
// reference, a pair now within B_i satisfied |ref_i - ref_j| <= B_i + d_i +
// d_j at build time, so the cache is complete while
//
//	max_i (d_i + B_i - R_i) + max_j d_j <= 0
//
// evaluated here with a small negative slack absorbing the rounding of the
// drift computation. Smoothing-length growth beyond (1+Skin)·RefH_i makes
// B_i - R_i positive and forces a rebuild through the same expression.
func (s *State) skinValid(maxH float64) bool {
	p := s.P
	nl := s.List
	box := s.Opt.Box
	lx, ly, lz := box.Lx(), box.Ly(), box.Lz()
	pbx, pby, pbz := box.PBCx, box.PBCy, box.PBCz
	sk := 1 + s.Opt.skin()

	var mu sync.Mutex
	maxDrift, maxExcess := math.Inf(-1), math.Inf(-1)
	par.ForChunked(p.N, func(lo, hi int) {
		localDrift, localExcess := math.Inf(-1), math.Inf(-1)
		for i := lo; i < hi; i++ {
			dx := neighbors.MinImage(p.X[i]-nl.RefX[i], lx, pbx)
			dy := neighbors.MinImage(p.Y[i]-nl.RefY[i], ly, pby)
			dz := neighbors.MinImage(p.Z[i]-nl.RefZ[i], lz, pbz)
			d := math.Sqrt(dx*dx + dy*dy + dz*dz)
			if d > localDrift {
				localDrift = d
			}
			// B_i - R_i = 2·hGrowthCap·(h_i - (1+Skin)·RefH_i)
			if e := d + 2*hGrowthCap*(p.H[i]-sk*nl.RefH[i]); e > localExcess {
				localExcess = e
			}
		}
		mu.Lock()
		if localDrift > maxDrift {
			maxDrift = localDrift
		}
		if localExcess > maxExcess {
			maxExcess = localExcess
		}
		mu.Unlock()
	})
	return maxExcess+maxDrift <= -1e-12*(2*hGrowthCap*maxH)
}

// boxGeom caches the box quantities of the inlined minimum-image fold.
type boxGeom struct {
	lx, ly, lz    float64
	hx, hy, hz    float64
	pbx, pby, pbz bool
}

func (s *State) geom() boxGeom {
	box := s.Opt.Box
	lx, ly, lz := box.Lx(), box.Ly(), box.Lz()
	return boxGeom{lx, ly, lz, lx / 2, ly / 2, lz / 2, box.PBCx, box.PBCy, box.PBCz}
}

// computeRow fills the chunk's dense buffers with the minimum-image
// displacements and squared distances from particle i to every candidate.
// Keeping this loop apart from the admission pass leaves it free of appends
// and lets the compiler eliminate the bounds checks. The fold is inlined
// term for term with the arithmetic of neighbors.MinImage, so the buffered
// values are bit-identical to a fresh grid gather over the same pairs.
func (cb *listChunk) computeRow(px, py, pz []float64, i int, cand []int32, g boxGeom) {
	n := len(cand)
	if cap(cb.cdx) < n {
		cb.cdx = make([]float64, n)
		cb.cdy = make([]float64, n)
		cb.cdz = make([]float64, n)
		cb.cr2 = make([]float64, n)
	}
	bdx, bdy, bdz, br2 := cb.cdx[:n], cb.cdy[:n], cb.cdz[:n], cb.cr2[:n]
	xi, yi, zi := px[i], py[i], pz[i]
	for k, j := range cand {
		dx := xi - px[j]
		if g.pbx {
			if dx > g.hx {
				dx -= g.lx
			} else if dx < -g.hx {
				dx += g.lx
			}
		}
		dy := yi - py[j]
		if g.pby {
			if dy > g.hy {
				dy -= g.ly
			} else if dy < -g.hy {
				dy += g.ly
			}
		}
		dz := zi - pz[j]
		if g.pbz {
			if dz > g.hz {
				dz -= g.lz
			} else if dz < -g.hz {
				dz += g.lz
			}
		}
		bdx[k] = dx
		bdy[k] = dy
		bdz[k] = dz
		br2[k] = dx*dx + dy*dy + dz*dz
	}
}

// regenCandidates rebuilds the candidate CSR from the checkpointed
// reference snapshot. The grid construction and gather are pure functions
// of the references, so the regenerated candidates are bit-identical to the
// ones the original build captured and a restarted run replays the same
// refresh/rebuild sequence.
func (s *State) regenCandidates() {
	nl := s.List
	n := s.P.N
	maxRefH := 0.0
	for _, h := range nl.RefH {
		maxRefH = math.Max(maxRefH, h)
	}
	sk := 1 + s.Opt.skin()
	grid := s.buildSearcher(nl.RefX, nl.RefY, nl.RefZ, sk*(2*maxRefH*hGrowthCap))

	chunks, _ := gatherRows(n, func(cb *listChunk, i int) float64 {
		grid.ForEachNeighbor(i, sk*(2*hGrowthCap*nl.RefH[i]), func(j int, _, _, _, _ float64) {
			cb.cand = append(cb.cand, int32(j))
		})
		cb.candEnd = append(cb.candEnd, int32(len(cb.cand)))
		return 0
	})
	nl.mergeCands(chunks, n)
	releaseChunks(chunks)
}
