package sph

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"sphenergy/internal/neighbors"
	"sphenergy/internal/par"
)

// hGrowthCap bounds per-step smoothing-length growth (the 1.3 clamp of the
// h update). The candidate-gather radius is sized for it, so the candidates
// of a rebuild cover both the old-h neighbor count and the post-update
// support.
const hGrowthCap = 1.3

// hGrowthAllow is the growth a pass over the candidates provides for before
// it has counted anyone's neighbors: it streams and keeps what supports up
// to hGrowthAllow·h could hold, and when the counts then grow some h further
// the pass is made again providing for hGrowthCap, which no update exceeds.
// The list is the same either way; the value only moves cost between the
// common step and the rare one.
const hGrowthAllow = 1.03

// Sides of a pair record: which endpoints' rows hold the pair.
const (
	SideOwner uint8 = 1 << iota // the row of the particle whose segment the record is in
	SideOther                   // the row of PairIdx
)

// NeighborList is the neighbor structure of the production pipeline,
// SPH-EXA style: FindNeighbors builds it in one traversal, and XMass,
// NormalizationGradh, IADVelocityDivCurl and MomentumEnergy stream over
// its flat slices instead of re-traversing the grid with a per-neighbor
// callback. This file and skinlist.go are the only ones that know how the
// list is built; the passes in pairpass.go only read the Pair* arrays.
type NeighborList struct {
	// Pair* is the pair list. Every unordered pair that lies inside either
	// endpoint's support after the step's smoothing-length update, r <
	// 2·max(h_a, h_b), appears exactly once, in the segment [PairOffsets[a],
	// PairOffsets[a+1]) of the endpoint a that owns its candidate (see
	// CandIdx), in the order of a's candidate segment. PairIdx is the other
	// endpoint b, PairDx/Dy/Dz the minimum-image displacement x_a - x_b,
	// PairDist its norm, and PairSide says whose row holds the pair:
	// SideOwner when r < 2·h_a, SideOther when r < 2·h_b, usually both.
	//
	// A particle's row is the records it takes part in on a side the mask
	// names, in record order — owners ascending, each owner's candidate
	// order, which under SFC ordering keeps the scatter targets of
	// consecutive records cache-adjacent. Ngmax caps it: a row keeps the
	// first Ngmax pairs inside its support in that order and the mask bit of
	// every later one is cleared (a record with no bit left is dropped), so
	// the cap, like the rest of the list, does not depend on how many workers
	// built it.
	PairOffsets []int32
	PairIdx     []int32
	PairSide    []uint8
	PairDx      []float64
	PairDy      []float64
	PairDz      []float64
	PairDist    []float64

	// Ngmax is the per-particle row cap (SPH-EXA's ngmax); Overflow counts
	// how many rows the last build truncated at it.
	Ngmax    int
	Overflow int

	// The Verlet-skin candidate cache is a half list in distance shells.
	// A rebuild stores every unordered pair within max(R_i, R_j) of each
	// other at the reference positions, R = (1+Skin)·2·1.3·RefH, once: with
	// the endpoint of the larger RefH, ties to the lower index, whose own
	// query radius finds it. Particle i's candidates are stably binned by
	// σ = dist_ref − 2·RefH_i — through dist_ref², which orders them the same
	// — into candShells shells (shellOf); shell k of particle i is
	// CandIdx[ShellOff[i·candShells+k]:ShellOff[i·candShells+k+1]], in the
	// traversal order of the gather (neighbors.Grid.Gather).
	//
	// A pair can be inside either support now only if its σ is below
	// d_i + max_j d_j + 2·G, with d the drift from the reference and G the
	// largest h − RefH of any particle: dist_ref ≤ dist_now + d_i + d_j by
	// the triangle inequality, dist_now < 2·max(h_i, h_j), and both h are at
	// most RefH_i + G because the owner has the larger RefH. Every step
	// streams only the shells that start below that bound.
	//
	// RefX/RefY/RefZ/RefH snapshot the build-time positions and (pre-update)
	// smoothing lengths that drift is measured against, and BuildStep the
	// step the build ran on. The candidate arrays are a pure function of the
	// references, so checkpoints persist only the references and restarts
	// regenerate CandIdx bit-identically (a list read from a checkpoint has
	// empty candidate and pair arrays until then). A list without references
	// — after an SFC reorder, which keeps the buffers and drops what they
	// held — counts as no list.
	ShellOff  []int32
	CandIdx   []int32
	RefX      []float64
	RefY      []float64
	RefZ      []float64
	RefH      []float64
	BuildStep int

	kernOK bool // XMass has filled wa/wb/dwa/dwb and dsum for this pair list

	rowLen []int32 // row length per particle, after the cap

	// What the passes cache between each other, indexed like the pair list
	// (kernel values W and dW/dr at the owner's and the other endpoint's
	// smoothing length) or per particle (the gradh sums, volume elements
	// m/ρ, P/(Ω ρ²) and Balsara factors the pair loops hoist). They live
	// here so that whatever drops the list drops them with it.
	wa, wb, dwa, dwb     []float64
	dsum, vol, prho, bal []float64
}

// Count returns the length of particle i's row.
func (nl *NeighborList) Count(i int) int { return int(nl.rowLen[i]) }

// hasRefs reports whether the list carries the references of n particles:
// false for no list and for one an SFC reorder invalidated.
func (nl *NeighborList) hasRefs(n int) bool { return nl != nil && len(nl.RefH) == n }

// invalidate drops what the list holds and keeps its buffers: the particle
// indices went stale (an SFC reorder), the next FindNeighbors rebuilds.
func (nl *NeighborList) invalidate() {
	nl.PairOffsets, nl.ShellOff, nl.CandIdx = nl.PairOffsets[:0], nl.ShellOff[:0], nl.CandIdx[:0]
	nl.RefX, nl.RefY, nl.RefZ, nl.RefH = nl.RefX[:0], nl.RefY[:0], nl.RefZ[:0], nl.RefH[:0]
	nl.BuildStep, nl.Overflow, nl.kernOK = 0, 0, false
}

// listChunk is the worker-local scratch of one contiguous range of owners
// [lo, hi). Chunks are pooled, so what they hold is scratch, not state.
type listChunk struct {
	lo, hi int

	// A candidate gather queries one owner at a time into cand, keys its
	// finds by shell, and appends them to idx sorted by that key, with
	// candShells ends per owner in end.
	cand neighbors.Candidates
	key  []uint8
	idx  []int32
	end  []int32

	// A pass over the candidates keeps, per owner, the survivors — index
	// and r² of every streamed pair a support reachable this step could hold
	// (survEnd[t] closes owner lo+t's) — and counts into acc, one slot per
	// particle of the whole set, what its owners' pairs add to anyone's
	// neighbor count, then to anyone's row length. Integer sums over the
	// chunks do not depend on how many there are.
	survEnd []int32
	survIdx []int32
	survR2  []float64
	acc     []int32

	streamed, shells int // candidates and shells the pass streamed
}

var listChunkPool = sync.Pool{New: func() interface{} { return new(listChunk) }}

// eachRange splits [0, n) into par's contiguous ranges, runs fn on each with
// a pooled chunk of its own, and returns the chunks in range order — read
// that way they are one serial pass. The caller releases them.
func (s *State) eachRange(n int, fn func(cb *listChunk)) []*listChunk {
	var mu sync.Mutex
	chunks := s.chunks[:0]
	par.ForChunked(n, func(lo, hi int) {
		cb := listChunkPool.Get().(*listChunk)
		cb.lo, cb.hi = lo, hi
		fn(cb)
		mu.Lock()
		chunks = append(chunks, cb)
		mu.Unlock()
	})
	slices.SortFunc(chunks, func(a, b *listChunk) int { return a.lo - b.lo })
	s.chunks = chunks
	return chunks
}

// eachChunk runs fn on every chunk, one goroutine per chunk: the chunks
// are the partition eachRange chose, so the later sweeps keep its width.
func eachChunk(chunks []*listChunk, fn func(cb *listChunk)) {
	if len(chunks) == 1 {
		fn(chunks[0])
		return
	}
	var wg sync.WaitGroup
	for _, cb := range chunks {
		wg.Add(1)
		go func(cb *listChunk) {
			defer wg.Done()
			fn(cb)
		}(cb)
	}
	wg.Wait()
}

// releaseChunks returns the chunks to the pool and forgets them: the slice
// is the state's to reuse, and a pointer left in it would keep a chunk's
// buffers alive past the pool's say.
func releaseChunks(chunks []*listChunk) {
	for _, cb := range chunks {
		listChunkPool.Put(cb)
	}
	clear(chunks)
}

// ensure returns s with length n, reallocated only when its capacity falls
// short. Contents are unspecified; callers overwrite or clear as needed.
func ensure[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// fit is ensure for the arrays that scale with the pair count, of any
// element type. Their length moves a little with every step, so a buffer
// that has to grow takes a sixteenth of headroom with it; and one more than
// a quarter too large is let go: a run started from a lattice holds a
// quarter more pairs, and twice the candidates, in its first steps than it
// ever does again, and with the list outliving every reorder that capacity
// would stay for good.
func fit[T any](s []T, n int) []T {
	if cap(s) < n || cap(s) > n+n/4 {
		return make([]T, n, n+n/16)
	}
	return s[:n]
}

// updateH applies the n^(1/3) smoothing-length iteration toward the target
// neighbor count, clamped to ±30% per step and bounded relative to the
// pre-update global maximum so the search grid stays valid for this step.
func updateH(h float64, n int, ng, maxH float64) float64 {
	c := math.Cbrt(ng / float64(n+1))
	nh := 0.5 * h * (1 + c)
	if nh > hGrowthCap*h {
		nh = hGrowthCap * h
	}
	if nh < 0.7*h {
		nh = 0.7 * h
	}
	if nh > maxH*hGrowthCap {
		nh = maxH * hGrowthCap
	}
	return nh
}

// support2 is the square of the support radius 2h: the r² bound of every
// admission test, the closure walk's (a grid query of radius 2h) included.
func support2(h float64) float64 { return (2 * h) * (2 * h) }

// buildList is the FindNeighbors of the production path. A rebuild first
// gathers the candidate shells afresh at the current positions
// (gatherCandidates); from there rebuild and refresh are the same three
// sweeps. streamCandidates computes each streamed pair's r² once, keeps the
// survivors and counts the neighbors inside the old supports of both
// endpoints — NC, which fixes the new smoothing length, as in the closure
// walk; updateSmoothing turns the counts into the new h; countRecords and
// writeRecords emit the pair records straight from the survivors. Returns
// the post-update maximum smoothing length.
//
// The candidates are known to cover the old supports (by construction on a
// rebuild, by skinValid on a refresh); a row whose h grew checks its new
// one against maxDrift, the largest drift skinValid found. A refresh that
// fails that check on any row ("drift": the skin ran out), or that
// overflows ngmax ("overflow": rows are capped in candidate order, which is
// a rebuild's to set), returns that cause for the rebuild the caller owes.
// H and NC are written once the list stands, so an abort leaves them as
// they were. A rebuild has no drift and cannot fail.
func (s *State) buildList(maxH, maxDrift float64, rebuild bool) (newMax float64, abort string) {
	p, nl := s.P, s.readyCandidates(rebuild)

	chunks := s.streamCandidates(maxH, maxDrift, hGrowthAllow)
	newMax, outgrown, skinOut := s.updateSmoothing(chunks, maxH, maxDrift, hGrowthAllow, rebuild)
	if outgrown && !skinOut {
		// The counts, and with them the new h, are final — every old
		// support was streamed — but a support grew past what the survivors
		// provide for: only those are taken again.
		releaseChunks(chunks)
		s.work.repeats++
		chunks = s.streamCandidates(maxH, maxDrift, hGrowthCap)
	}
	defer releaseChunks(chunks)
	if skinOut {
		return 0, "drift"
	}
	nl.countRecords(s.hNew, chunks)
	if nl.Overflow > 0 && !rebuild {
		return 0, "overflow"
	}
	copy(p.H, s.hNew)
	copy(p.NC, s.ncNew)
	nl.writeRecords(p, s.geom(), chunks)
	s.work.records += len(nl.PairIdx)
	return newMax, ""
}

// readyCandidates brings the candidate shells up to the step: gathered
// afresh from the particles as they stand on a rebuild, regenerated from the
// references if a checkpoint brought nothing else, left alone otherwise. It
// sizes the sweeps' scratch and returns the list.
func (s *State) readyCandidates(rebuild bool) *NeighborList {
	p := s.P
	n := p.N
	if s.List == nil {
		s.List = &NeighborList{}
	}
	nl := s.List
	nl.Ngmax = s.Opt.ngmax()
	if rebuild {
		// Snapshot the reference state before the smoothing-length update;
		// the candidate list is a pure function of this snapshot (and the
		// box), so checkpoints persist only the snapshot.
		nl.RefX = append(nl.RefX[:0], p.X...)
		nl.RefY = append(nl.RefY[:0], p.Y...)
		nl.RefZ = append(nl.RefZ[:0], p.Z...)
		nl.RefH = append(nl.RefH[:0], p.H...)
		nl.BuildStep = s.Step
		s.Grid = s.gatherCandidates(p.X, p.Y, p.Z, p.H)
	} else {
		if len(nl.ShellOff) != n*candShells+1 {
			// Read from a checkpoint, which carries the references only.
			s.gatherCandidates(nl.RefX, nl.RefY, nl.RefZ, nl.RefH)
		}
		// The grid still bins the last rebuild's positions; nothing may
		// walk it as if it were this step's.
		s.Grid = nil
	}
	s.hNew = ensure(s.hNew, n)
	s.ncNew = ensure(s.ncNew, n)
	return nl
}

// updateSmoothing sums the chunks' neighbor counts and applies the h update,
// into ncNew and hNew: the particles keep their own until the list stands.
// It reports the largest new h, whether any grew past grow·h — further than
// the survivors provide for — and, on a refresh, whether a grown support
// outran the skin.
func (s *State) updateSmoothing(chunks []*listChunk, maxH, maxDrift, grow float64, rebuild bool) (newMax float64, outgrown, skinOut bool) {
	p := s.P
	ng := float64(s.Opt.NgTarget)
	var grown, out atomic.Bool
	newMax = par.Reduce(p.N, func(lo, hi int) float64 {
		localMax := 0.0
		for i := lo; i < hi; i++ {
			cnt := int32(0)
			for _, cb := range chunks {
				cnt += cb.acc[i]
			}
			hOld := p.H[i]
			h := updateH(hOld, int(cnt), ng, maxH)
			s.ncNew[i], s.hNew[i] = cnt, h
			if h > grow*hOld {
				grown.Store(true)
			}
			if !rebuild && h > hOld {
				if slack, _ := s.skinSlack(i, h, maxH); slack < maxDrift {
					out.Store(true)
				}
			}
			if h > localMax {
				localMax = h
			}
		}
		return localMax
	}, math.Max)
	return newMax, grown.Load(), out.Load()
}

// sides says whose support holds a pair of squared distance r2: the owner's,
// of squared radius supA, the other endpoint's, of smoothing length hb, or
// both.
func sides(r2, supA, hb float64) uint8 {
	var side uint8
	if r2 < supA {
		side = SideOwner
	}
	if r2 < support2(hb) {
		side |= SideOther
	}
	return side
}

// countRecords is the first half of the emission, over the survivors and the
// final smoothing lengths h: how many records each owner's segment takes —
// the survivors inside either support — as PairOffsets, and every row's
// length, summed over the chunks like the neighbor counts, with the number
// of rows longer than Ngmax as Overflow.
func (nl *NeighborList) countRecords(h []float64, chunks []*listChunk) {
	n := len(h)
	nl.PairOffsets = ensure(nl.PairOffsets, n+1)
	nl.rowLen = ensure(nl.rowLen, n)
	eachChunk(chunks, func(cb *listChunk) {
		clear(cb.acc)
		k := int32(0)
		for t, end := range cb.survEnd {
			a := cb.lo + t
			supA := support2(h[a])
			records, own := int32(0), int32(0)
			for ; k < end; k++ {
				b := cb.survIdx[k]
				side := sides(cb.survR2[k], supA, h[b])
				if side != 0 {
					records++
				}
				// The mask's two bits, as 0 or 1 each.
				own += int32(side & SideOwner)
				cb.acc[b] += int32(side / SideOther)
			}
			cb.acc[a] += own
			nl.PairOffsets[a+1] = records
		}
	})
	nl.PairOffsets[0] = 0
	nl.Overflow = 0
	for i := 0; i < n; i++ {
		row := int32(0)
		for _, cb := range chunks {
			row += cb.acc[i]
		}
		nl.rowLen[i] = row
		if int(row) > nl.Ngmax {
			nl.Overflow++
		}
		nl.PairOffsets[i+1] += nl.PairOffsets[i]
	}
}

// writeRecords is the second half: it fills the pair arrays from the
// survivors, recomputing the displacement and taking the square root of the
// records kept only. Without overflow every chunk fills its own contiguous
// run of the arrays; with it the chunks are filled one after the other, in
// order, so that each row's running length decides which of its pairs the
// cap still admits.
func (nl *NeighborList) writeRecords(p *Particles, g boxGeom, chunks []*listChunk) {
	n := p.N
	np := int(nl.PairOffsets[n])
	nl.PairIdx = fit(nl.PairIdx, np)
	nl.PairSide = fit(nl.PairSide, np)
	nl.PairDx = fit(nl.PairDx, np)
	nl.PairDy = fit(nl.PairDy, np)
	nl.PairDz = fit(nl.PairDz, np)
	nl.PairDist = fit(nl.PairDist, np)
	if nl.Overflow == 0 {
		eachChunk(chunks, func(cb *listChunk) {
			nl.fillChunk(p, g, cb, nl.PairOffsets[cb.lo], false)
		})
	} else {
		clear(nl.rowLen)
		w := int32(0)
		for _, cb := range chunks {
			w = nl.fillChunk(p, g, cb, w, true)
		}
		np = int(w)
		nl.PairIdx, nl.PairSide = nl.PairIdx[:np], nl.PairSide[:np]
		nl.PairDx, nl.PairDy, nl.PairDz, nl.PairDist = nl.PairDx[:np], nl.PairDy[:np], nl.PairDz[:np], nl.PairDist[:np]
	}
	// The per-pair kernel cache indexes the old records; the next XMass
	// refills it.
	nl.kernOK = false
}

// fillChunk writes the records of the chunk's owners from position w on and
// returns where it stopped. Capped, it counts every row's length in rowLen
// as it goes, clears the side of a pair whose row is full, and sets the
// segment ends itself: how many records the cap leaves is known only here.
func (nl *NeighborList) fillChunk(p *Particles, g boxGeom, cb *listChunk, w int32, capped bool) int32 {
	px, py, pz, h := p.X, p.Y, p.Z, p.H
	rows, ngmax := nl.rowLen, int32(nl.Ngmax)
	k := int32(0)
	for t, end := range cb.survEnd {
		a := cb.lo + t
		xa, ya, za, supA := px[a], py[a], pz[a], support2(h[a])
		for ; k < end; k++ {
			b, r2 := cb.survIdx[k], cb.survR2[k]
			side := sides(r2, supA, h[b])
			if capped {
				if side&SideOwner != 0 {
					if rows[a] < ngmax {
						rows[a]++
					} else {
						side &^= SideOwner
					}
				}
				if side&SideOther != 0 {
					if rows[b] < ngmax {
						rows[b]++
					} else {
						side &^= SideOther
					}
				}
			}
			if side == 0 {
				continue
			}
			nl.PairIdx[w] = b
			nl.PairSide[w] = side
			nl.PairDx[w] = neighbors.Fold(xa-px[b], g.hx, g.lx)
			nl.PairDy[w] = neighbors.Fold(ya-py[b], g.hy, g.ly)
			nl.PairDz[w] = neighbors.Fold(za-pz[b], g.hz, g.lz)
			nl.PairDist[w] = math.Sqrt(r2)
			w++
		}
		if capped {
			nl.PairOffsets[a+1] = w
		}
	}
	return w
}
