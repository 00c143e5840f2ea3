package blocks

import (
	"slices"
	"testing"
)

// At returns the i-th oldest element, 0 <= i < Len().
func (s *Seq[T]) At(i int) *T {
	if i += s.head; i >= s.n {
		i -= s.n
	}
	return &s.blocks[i/Len][i%Len]
}

// TestSeqMatchesSliceModel drives an unbounded sequence and rings of
// several bounds — below a block, a whole number of blocks, ragged —
// against a plain slice that keeps the newest bound elements.
func TestSeqMatchesSliceModel(t *testing.T) {
	for _, bound := range []int{0, 1, 7, Len, 2 * Len, 2*Len + 101} {
		s := Bounded[int](bound)
		var model []int
		drops := 0
		check := func(pushed int) {
			t.Helper()
			if s.Len() != len(model) {
				t.Fatalf("bound %d after %d pushes: Len %d, want %d", bound, pushed, s.Len(), len(model))
			}
			if got := s.AppendTo(nil); !slices.Equal(got, model) {
				t.Fatalf("bound %d after %d pushes: holds %v..., want %v...", bound, pushed, got[:min(4, len(got))], model[:min(4, len(model))])
			}
			for _, i := range []int{0, len(model) / 2, len(model) - 1} {
				if i >= 0 && i < len(model) && *s.At(i) != model[i] {
					t.Fatalf("bound %d after %d pushes: At(%d) = %d, want %d", bound, pushed, i, *s.At(i), model[i])
				}
			}
		}
		for v := 0; v < 3*(2*Len+101)+5; v++ {
			slot, dropped := s.Push()
			*slot = v
			if model = append(model, v); bound > 0 && len(model) > bound {
				model = model[1:]
				drops++
			}
			if dropped != (bound > 0 && v >= bound) {
				t.Fatalf("bound %d: push %d reported dropped=%v", bound, v, dropped)
			}
			if v%97 == 0 || v == bound-1 || v == bound {
				check(v + 1)
			}
		}
		check(-1)
		if bound > 0 && drops != 3*(2*Len+101)+5-bound {
			t.Fatalf("bound %d: model dropped %d", bound, drops)
		}

		// Elements never move: a slot's address outlives later pushes.
		s.Reset()
		if s.Len() != 0 || len(s.AppendTo(nil)) != 0 {
			t.Fatalf("bound %d: Reset left %d elements", bound, s.Len())
		}
		first, _ := s.Push()
		*first = -1
		more := Len + 3 // into a second block, but not around a ring
		if bound > 0 {
			more = min(more, bound-1)
		}
		for v := 0; v < more; v++ {
			slot, _ := s.Push()
			*slot = v
		}
		if s.At(0) != first || *first != -1 {
			t.Fatalf("bound %d: the first element moved or changed", bound)
		}
	}
}

// TestSeqAllocatesABlockAtATime pins the point of the package: filling a
// sequence allocates its blocks and the table of them, not a longer copy of
// itself every so often, and a ring at its bound allocates nothing.
func TestSeqAllocatesABlockAtATime(t *testing.T) {
	const n = 40 * Len
	var s Seq[[4]float64]
	fill := testing.AllocsPerRun(5, func() {
		s = Seq[[4]float64]{}
		for i := 0; i < n; i++ {
			slot, _ := s.Push()
			slot[0] = float64(i)
		}
	})
	if fill > 40+8 {
		t.Errorf("filling %d blocks allocated %.0f times, want the blocks and a few growths of their table", n/Len, fill)
	}
	ring := Bounded[[4]float64](3 * Len)
	for i := 0; i < 3*Len; i++ {
		ring.Push()
	}
	if wrap := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10*Len; i++ {
			ring.Push()
		}
	}); wrap != 0 {
		t.Errorf("a full ring allocated %.0f times while wrapping", wrap)
	}
}
