package sph

import (
	"math"
	"slices"
	"sort"
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

// NeighborList is the neighbor structure of the production pipeline,
// SPH-EXA style: FindNeighbors builds it in one traversal, and XMass,
// NormalizationGradh, IADVelocityDivCurl and MomentumEnergy stream over
// its flat slices instead of re-traversing the grid with a per-neighbor
// callback. This file is the only one that knows how the list is built;
// the passes in pairpass.go only read the Pair* arrays.
type NeighborList struct {
	// Pair* is the folded pair list. A particle's directed row holds every
	// j != i with |x_i - x_j| < 2*h_i after the step's smoothing-length
	// update, in the order of i's candidate segment — the traversal order of
	// the candidate gather (neighbors.Grid.Gather) at the reference
	// positions — and truncated at Ngmax in that order. Every unordered
	// pair that some row holds appears here exactly once, in the segment
	// [PairOffsets[a], PairOffsets[a+1]) of the endpoint a that owns it —
	// the smaller index when both rows hold the pair, the only endpoint
	// whose row does otherwise. PairIdx is the other endpoint, PairDx/Dy/Dz
	// the minimum-image displacement x_owner - x_other, PairDist its norm,
	// and PairBoth is 1 when the other endpoint's row holds the pair too.
	// Records keep the owner's row order, so the scatter targets of
	// consecutive pairs stay cache-adjacent under SFC ordering.
	PairOffsets []int32
	PairIdx     []int32
	PairBoth    []uint8
	PairDx      []float64
	PairDy      []float64
	PairDz      []float64
	PairDist    []float64

	// Ngmax is the per-particle row cap (SPH-EXA's ngmax); Overflow counts
	// how many rows the last build truncated at it.
	Ngmax    int
	Overflow int

	// Verlet-skin candidate cache: CandOffsets/CandIdx hold, CSR style,
	// every particle within the inflated radius (1+Skin)·2·1.3·refH_i of
	// particle i at the positions the candidates were last gathered from.
	// Every step's rows are admitted from these segments. RefX/RefY/RefZ/RefH
	// snapshot the build-time positions and (pre-update) smoothing lengths
	// that drift is measured against, and BuildStep the step the build ran
	// on. The candidate arrays are a pure function of the references, so
	// checkpoints persist only the references and restarts regenerate
	// CandIdx bit-identically (a list read from a checkpoint has nil
	// candidate and pair arrays until then).
	CandOffsets []int32
	CandIdx     []int32
	RefX        []float64
	RefY        []float64
	RefZ        []float64
	RefH        []float64
	BuildStep   int

	kernOK bool // XMass has filled wa/wb/dwa/dwb and dsum for this pair list

	rowLen []int32 // directed row length per particle, after the cap

	// What the passes cache between each other, indexed like the pair list
	// (kernel values W and dW/dr at the owner's and the other endpoint's
	// smoothing length) or per particle (the gradh sums, volume elements
	// m/ρ, P/(Ω ρ²) and Balsara factors the pair loops hoist). They live
	// here so that whatever drops the list drops them with it.
	wa, wb, dwa, dwb     []float64
	dsum, vol, prho, bal []float64
}

// Count returns the length of particle i's directed row.
func (nl *NeighborList) Count(i int) int { return int(nl.rowLen[i]) }

// listChunk is the worker-local buffer of one contiguous particle range:
// the directed rows a FindNeighbors traversal admits, which foldRows reads
// in place. Chunks are pooled, so what they hold is scratch, not state.
type listChunk struct {
	lo       int     // first particle of the range
	rowEnd   []int32 // rowEnd[t] closes the row of particle lo+t in idx…r2
	idx      []int32
	dx       []float64
	dy       []float64
	dz       []float64
	r2       []float64
	own      []uint8 // fold disposition of every row entry
	overflow int

	// A candidate gather fills these instead, laid out like the rows.
	cand    neighbors.Candidates
	candEnd []int32

	// Every row streams its candidates' r² through cr2 and compacts the
	// positions of those it admits into sel (streamRow, admitRow).
	cr2 []float64
	sel []int32
}

var listChunkPool = sync.Pool{New: func() interface{} { return new(listChunk) }}

func (cb *listChunk) reset(lo int) {
	cb.lo = lo
	cb.rowEnd = cb.rowEnd[:0]
	cb.idx = cb.idx[:0]
	cb.dx = cb.dx[:0]
	cb.dy = cb.dy[:0]
	cb.dz = cb.dz[:0]
	cb.r2 = cb.r2[:0]
	cb.overflow = 0
	cb.cand = neighbors.Candidates{Idx: cb.cand.Idx[:0]}
	cb.candEnd = cb.candEnd[:0]
}

// row returns the entry range of the chunk's t-th row.
func (cb *listChunk) row(t int) (lo, hi int32) {
	if t > 0 {
		lo = cb.rowEnd[t-1]
	}
	return lo, cb.rowEnd[t]
}

// rowHas reports whether particle j's row holds i. chunks is sorted by
// range. Rows are in grid traversal order (unsorted), so this is a linear
// scan; the fold only asks for rows truncated at ngmax, which are rare by
// construction.
func rowHas(chunks []*listChunk, j, i int32) bool {
	cb := chunks[sort.Search(len(chunks), func(c int) bool { return chunks[c].lo > int(j) })-1]
	lo, hi := cb.row(int(j) - cb.lo)
	for _, v := range cb.idx[lo:hi] {
		if v == i {
			return true
		}
	}
	return false
}

// eachChunk runs fn on every chunk, one goroutine per chunk: the chunks
// are the partition par.Reduce chose for the gather, so the fold keeps its
// width.
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

// gatherRows calls row for every particle of [0, n), handing each of
// par.Reduce's contiguous ranges its own pooled chunk, and returns the
// chunks in range order — read that way they are one serial build — with
// the maximum of row's results. The caller releases the chunks.
func gatherRows(n int, row func(cb *listChunk, i int) float64) ([]*listChunk, float64) {
	var mu sync.Mutex
	chunks := make([]*listChunk, 0, par.MaxWorkers())
	top := par.Reduce(n, func(lo, hi int) float64 {
		cb := listChunkPool.Get().(*listChunk)
		cb.reset(lo)
		localMax := 0.0
		for i := lo; i < hi; i++ {
			if v := row(cb, i); v > localMax {
				localMax = v
			}
		}
		mu.Lock()
		chunks = append(chunks, cb)
		mu.Unlock()
		return localMax
	}, math.Max)
	sort.Slice(chunks, func(a, b int) bool { return chunks[a].lo < chunks[b].lo })
	return chunks, top
}

func releaseChunks(chunks []*listChunk) {
	for _, cb := range chunks {
		listChunkPool.Put(cb)
	}
}

func ensureInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func ensureF64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func ensureU8(s []uint8, n int) []uint8 {
	if cap(s) < n {
		return make([]uint8, n)
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
// gathers the candidate cache afresh at the current positions
// (gatherCandidates); from there rebuild and refresh are the same pass over
// the candidate segments, count-then-admit: a row streams its candidates'
// r² through the dense distance kernel, counts those inside the old support
// — NC, which fixes the new smoothing length, as in the closure walk —
// and admits those inside the new one, up to Ngmax, in candidate order. The
// finished rows are folded into the pair list. Returns the post-update
// maximum smoothing length.
//
// The candidates are known to cover the old supports (by construction on a
// rebuild, by skinValid on a refresh); a row whose h grew checks its new
// one against maxDrift, the largest drift skinValid found, as soon as it
// knows it. A refresh that fails that check on any row ("drift": the skin
// ran out), or that overflows ngmax ("overflow": the capped candidate
// segment may not hold the pairs a fresh gather would keep, so truncation
// is only honest on a rebuild), restores H and NC and returns that cause
// for the rebuild the caller owes. A rebuild passes -Inf and cannot fail.
func (s *State) buildList(maxH, maxDrift float64, rebuild bool) (newMax float64, abort string) {
	p := s.P
	n := p.N
	if s.List == nil {
		s.List = &NeighborList{}
	}
	nl := s.List
	nl.Ngmax = s.Opt.ngmax()
	nl.rowLen = ensureInt32(nl.rowLen, n)
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
		if nl.CandOffsets == nil {
			// Read from a checkpoint, which carries the references only.
			s.gatherCandidates(nl.RefX, nl.RefY, nl.RefZ, nl.RefH)
		}
		// The row pass mutates H and NC; keep them so an abort can fall
		// back to a rebuild without double-applying the h update.
		s.hBackup = append(s.hBackup[:0], p.H...)
		s.ncBackup = append(s.ncBackup[:0], p.NC...)
		// The grid still bins the last rebuild's positions; nothing may
		// walk it as if it were this step's.
		s.Grid = nil
	}
	ng, ngmax, geo := float64(s.Opt.NgTarget), nl.Ngmax, s.geom()

	var skinOut atomic.Bool // a grown support outran the skin
	chunks, newMax := gatherRows(n, func(cb *listChunk, i int) float64 {
		if skinOut.Load() {
			return 0 // the pass is void; finish it fast
		}
		hOld := p.H[i]
		cand := nl.CandIdx[nl.CandOffsets[i]:nl.CandOffsets[i+1]]
		cnt := cb.streamRow(p, i, cand, geo, support2(hOld))
		p.NC[i] = int32(cnt)
		h := updateH(hOld, cnt, ng, maxH)
		p.H[i] = h
		if h > hOld {
			if slack, _ := s.skinSlack(i, h, maxH); slack < maxDrift {
				skinOut.Store(true)
				return 0
			}
		}
		nl.rowLen[i] = int32(cb.admitRow(p, i, cand, geo, support2(h), ngmax))
		return h
	})
	defer releaseChunks(chunks)

	nl.Overflow = 0
	for _, cb := range chunks {
		nl.Overflow += cb.overflow
	}
	if !rebuild {
		// A voided pass stopped its chunks wherever they were, so its
		// overflow count means nothing: the skin is asked first.
		switch {
		case skinOut.Load():
			abort = "drift"
		case nl.Overflow > 0:
			abort = "overflow"
		}
		if abort != "" {
			copy(p.H, s.hBackup)
			copy(p.NC, s.ncBackup)
			return 0, abort
		}
	}
	nl.foldRows(p.H, chunks)
	return newMax, ""
}

// candRadius is how far a particle of smoothing length h gathers its
// candidates: the widest support one step can leave it with, 2·hGrowthCap·h,
// inflated by the skin factor sk = 1 + Skin.
func candRadius(sk, h float64) float64 { return sk * (2 * hGrowthCap * h) }

// gatherCandidates fills the candidate CSR from positions and smoothing
// lengths — the particles' on a rebuild, the checkpointed references' on a
// restart, which is why the two agree bit for bit — and returns the grid it
// searched. The grid's cells are half the largest candidate radius: a query
// then tests ≈ 2.7 particles per candidate kept where radius-sized cells
// test 6, and Grid.Gather walks x-adjacent cells as one run, so the finer
// grid costs no more loop set-up.
func (s *State) gatherCandidates(x, y, z, h []float64) *neighbors.Grid {
	sk := 1 + s.Opt.skin()
	grid := s.buildSearcher(x, y, z, candRadius(sk, slices.Max(h))/2)
	chunks, _ := gatherRows(len(h), func(cb *listChunk, i int) float64 {
		grid.Gather(&cb.cand, i, candRadius(sk, h[i]))
		cb.candEnd = append(cb.candEnd, int32(len(cb.cand.Idx)))
		return 0
	})
	s.List.mergeCands(chunks, len(h))
	for _, cb := range chunks {
		s.gatherTests += cb.cand.Tests
		s.gatherRuns += cb.cand.Runs
	}
	releaseChunks(chunks)
	return grid
}

// mergeCands concatenates the chunks' captured candidate rows, in range
// order, into the candidate CSR.
func (nl *NeighborList) mergeCands(chunks []*listChunk, n int) {
	nl.CandOffsets = ensureInt32(nl.CandOffsets, n+1)
	base := int32(0)
	for _, cb := range chunks {
		nl.CandOffsets[cb.lo] = base
		for t, end := range cb.candEnd {
			nl.CandOffsets[cb.lo+t+1] = base + end
		}
		base += int32(len(cb.cand.Idx))
	}
	nl.CandIdx = ensureInt32(nl.CandIdx, int(base))
	for _, cb := range chunks {
		copy(nl.CandIdx[nl.CandOffsets[cb.lo]:], cb.cand.Idx)
	}
}

// Dispositions of a directed row entry a→b in the fold.
const (
	pairSkip = 0 // b's row holds the pair and b < a: b owns the record
	pairOne  = 1 // record owned here; b's row does not hold the pair
	pairTwo  = 2 // record owned here; b's row holds it too (PairBoth = 1)
)

// foldRows folds the finished directed rows, read in place from the chunks
// that admitted them, into the pair list. For an entry a→b the reverse
// entry b→a exists iff r² < (2·h_b)² and b's row was not truncated: r² is
// the same bits from either end, b's row admitted by that very test, and
// b's candidates were proved to hold everything within 2·max(h_old, h_new)
// of b — the old support before the pass, a grown one by b's own row — so
// the only way a sub-support pair can be missing from b's row is the ngmax
// cap, checked by scanning that row. All smoothing lengths are final before
// this runs. Two sweeps over the chunks — disposition + count, then fill,
// taking the square root of the records kept — with a serial prefix sum in
// between; no atomics, output independent of the worker count.
func (nl *NeighborList) foldRows(h []float64, chunks []*listChunk) {
	n := len(h)
	nl.PairOffsets = ensureInt32(nl.PairOffsets, n+1)
	ngmax := int32(nl.Ngmax)
	eachChunk(chunks, func(cb *listChunk) {
		cb.own = ensureU8(cb.own, len(cb.idx))
		k := int32(0)
		for t, end := range cb.rowEnd {
			a := int32(cb.lo + t)
			cnt := int32(0)
			for ; k < end; k++ {
				b := cb.idx[k]
				rev := cb.r2[k] < support2(h[b])
				if rev && nl.rowLen[b] == ngmax {
					rev = rowHas(chunks, b, a)
				}
				switch {
				case !rev:
					cb.own[k] = pairOne
					cnt++
				case b > a:
					cb.own[k] = pairTwo
					cnt++
				default:
					cb.own[k] = pairSkip
				}
			}
			nl.PairOffsets[a+1] = cnt
		}
	})
	nl.PairOffsets[0] = 0
	for a := 0; a < n; a++ {
		nl.PairOffsets[a+1] += nl.PairOffsets[a]
	}
	np := int(nl.PairOffsets[n])
	nl.PairIdx = ensureInt32(nl.PairIdx, np)
	nl.PairBoth = ensureU8(nl.PairBoth, np)
	nl.PairDx = ensureF64(nl.PairDx, np)
	nl.PairDy = ensureF64(nl.PairDy, np)
	nl.PairDz = ensureF64(nl.PairDz, np)
	nl.PairDist = ensureF64(nl.PairDist, np)
	eachChunk(chunks, func(cb *listChunk) {
		// A chunk's rows are consecutive particles, so its records are one
		// contiguous run of the pair arrays.
		w := nl.PairOffsets[cb.lo]
		for k, d := range cb.own {
			if d == pairSkip {
				continue
			}
			nl.PairIdx[w] = cb.idx[k]
			nl.PairBoth[w] = d - pairOne
			nl.PairDx[w] = cb.dx[k]
			nl.PairDy[w] = cb.dy[k]
			nl.PairDz[w] = cb.dz[k]
			nl.PairDist[w] = math.Sqrt(cb.r2[k])
			w++
		}
	})
	// The per-pair kernel cache indexes the old fold; the next XMass
	// refills it.
	nl.kernOK = false
}
