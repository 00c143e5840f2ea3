package sph

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"
)

// PreCheck exposes FindNeighbors' decision before the pass to the external
// tests, which cannot otherwise tell a drift rebuild the pre-check called
// from one the refresh fell back to.
func (s *State) PreCheck() string {
	kind, _ := s.rebuildCause(s.P.MaxH())
	return kind
}

// Twin returns a state over a copy of st's particles as they stand, with its
// clocks and the references of its list, if it has any: what a checkpoint
// would carry over, without the file.
func Twin(st *State) *State {
	p := NewParticles(st.P.N)
	for k, f := range st.P.fieldSlices() {
		copy(p.fieldSlices()[k], f)
	}
	copy(p.NC, st.P.NC)
	copy(p.Keys, st.P.Keys)
	tw := NewState(p, st.Opt)
	tw.Step, tw.Dt, tw.Time, tw.LastReorderStep = st.Step, st.Dt, st.Time, st.LastReorderStep
	if nl := st.List; nl.hasRefs(p.N) {
		tw.List = &NeighborList{RefX: slices.Clone(nl.RefX), RefY: slices.Clone(nl.RefY), RefZ: slices.Clone(nl.RefZ),
			RefH: slices.Clone(nl.RefH), BuildStep: nl.BuildStep}
	}
	return tw
}

// WalkTwin returns a closure-walk twin of st: what its FindNeighbors makes of
// the particles as they stand is the reference.
func WalkTwin(st *State) *State {
	tw := Twin(st)
	tw.Opt.ClosureWalk = true
	return tw
}

// RequireRowsOfWalk holds st, after its FindNeighbors, to the twin taken
// before it: the same old-support counts, the same smoothing lengths, and
// rows as long as the walk's grid counts each new support — a row cannot
// hold a pair that is none, so an equal count is an equal set.
func RequireRowsOfWalk(t testing.TB, st, walk *State) {
	t.Helper()
	walk.FindNeighbors()
	for i := 0; i < st.P.N; i++ {
		if st.P.NC[i] != walk.P.NC[i] || st.P.H[i] != walk.P.H[i] {
			t.Fatalf("particle %d: NC %d, h %.17g; the walk has %d, %.17g", i, st.P.NC[i], st.P.H[i], walk.P.NC[i], walk.P.H[i])
		}
		if got, want := st.List.Count(i), walk.Grid.CountNeighbors(i, 2*st.P.H[i]); got != want {
			t.Fatalf("particle %d: row of %d, the walk finds %d within its support: a pair is missing", i, got, want)
		}
	}
}

// SweepAllShells is FindNeighbors with no lever pulled, the reference the
// shell prefix and the growth allowance are held to: from the candidates
// FindNeighbors would have — gathered afresh when rebuild is set, regenerated
// from the twin's references when not — every shell of every owner is
// streamed and every survivor a growth by hGrowthCap could need is kept, in
// one pass. It neither aborts nor caps rows.
func (s *State) SweepAllShells(rebuild bool) {
	maxH, maxDrift := s.P.MaxH(), 0.0
	if !rebuild {
		maxDrift, _ = s.skinValid(maxH)
	}
	nl := s.readyCandidates(rebuild)
	chunks := s.streamCandidates(maxH, math.Inf(1), hGrowthCap)
	s.MaxH, _, _ = s.updateSmoothing(chunks, maxH, maxDrift, hGrowthCap, rebuild)
	nl.countRecords(s.hNew, chunks)
	copy(s.P.H, s.hNew)
	copy(s.P.NC, s.ncNew)
	nl.writeRecords(s.P, s.geom(), chunks)
	releaseChunks(chunks)
}

// StreamedBytesPerRecord is what the named pair pass streams per record:
// the bytes of one element of every record or kernel-cache array its sweeps
// read or write in record order, once per sweep. Per-particle arrays, read
// at random or in O(n) loops, are not counted.
func StreamedBytesPerRecord(pass string) int {
	var nl NeighborList
	record := elemSize(nl.PairIdx) + elemSize(nl.PairSide)
	disp := elemSize(nl.PairDx) + elemSize(nl.PairDy) + elemSize(nl.PairDz)
	switch pass {
	case PassXMass: // reads the distance, writes the four kernel values
		return record + elemSize(nl.PairDist) + elemSize(nl.wa) + elemSize(nl.wb) + elemSize(nl.dwa) + elemSize(nl.dwb)
	case PassIAD: // one sweep: τ and D from the displacement and W at both ends
		return record + disp + elemSize(nl.wa) + elemSize(nl.wb)
	case PassMomentumEnergy:
		return record + disp + elemSize(nl.PairDist) + elemSize(nl.dwa) + elemSize(nl.dwb)
	}
	panic("no pair pass " + pass)
}

func elemSize[T any](_ []T) int {
	var x T
	return int(unsafe.Sizeof(x))
}

// ListDiff names the first thing FindNeighbors left differently in a and b
// — smoothing lengths, counts, candidate shells, row lengths, pair records —
// or returns "" when they agree bit for bit.
func ListDiff(a, b *State) string {
	la, lb := a.List, b.List
	for _, c := range []struct {
		name string
		same bool
	}{
		{"H", slices.Equal(a.P.H, b.P.H)}, {"NC", slices.Equal(a.P.NC, b.P.NC)},
		{"ShellOff", slices.Equal(la.ShellOff, lb.ShellOff)}, {"CandIdx", slices.Equal(la.CandIdx, lb.CandIdx)},
		{"row lengths", slices.Equal(la.rowLen, lb.rowLen)}, {"Overflow", la.Overflow == lb.Overflow},
		{"PairOffsets", slices.Equal(la.PairOffsets, lb.PairOffsets)}, {"PairIdx", slices.Equal(la.PairIdx, lb.PairIdx)},
		{"PairSide", slices.Equal(la.PairSide, lb.PairSide)}, {"PairDist", slices.Equal(la.PairDist, lb.PairDist)},
		{"PairDx", slices.Equal(la.PairDx, lb.PairDx)}, {"PairDy", slices.Equal(la.PairDy, lb.PairDy)}, {"PairDz", slices.Equal(la.PairDz, lb.PairDz)},
	} {
		if !c.same {
			return fmt.Sprintf("%s differ (%d and %d pair records)", c.name, len(la.PairIdx), len(lb.PairIdx))
		}
	}
	return ""
}
