// Package blocks holds the growing record buffers of the observers — a
// sampler channel's tick series, a tracer shard's events, the decision
// ledger's ring — in fixed-size blocks. A slice grown by append moves
// everything it holds each time it outgrows its array, a quarter at a time
// once it is long: a run's million-odd records were each copied four or
// five times that way, and every abandoned array was garbage. A block is
// allocated when the sequence first reaches it and never moved, so a record
// is written once, an element's address stays valid, and a bounded sequence
// that the run did not fill retains what it used, not its bound.
package blocks

import "slices"

// Len is the number of elements in a block.
const Len = 512

// Seq is a sequence of T in blocks: unbounded as its zero value, or — made
// by Bounded — a ring that holds the newest elements up to its bound.
// It is not safe for concurrent use; its owners guard it with their own
// mutex.
type Seq[T any] struct {
	blocks [][]T
	n      int // elements held
	head   int // position of the oldest, once a bounded sequence has wrapped
	bound  int // most elements held; 0 for no bound
}

// Bounded returns a sequence that holds at most bound elements.
func Bounded[T any](bound int) Seq[T] { return Seq[T]{bound: bound} }

// Push makes room for one more element and returns it for the caller to
// assign: what it holds is stale. A bounded sequence that is full gives up
// its oldest element for it and reports dropped.
func (s *Seq[T]) Push() (slot *T, dropped bool) {
	at := s.n
	if s.bound == 0 || s.n < s.bound {
		s.n++
	} else {
		at, dropped = s.head, true
		if s.head++; s.head == s.bound {
			s.head = 0
		}
	}
	b := at / Len
	if b == len(s.blocks) {
		size := Len
		if s.bound != 0 {
			size = min(Len, s.bound-b*Len)
		}
		s.blocks = append(s.blocks, make([]T, size))
	}
	return &s.blocks[b][at%Len], dropped
}

// Len returns the number of elements held.
func (s *Seq[T]) Len() int { return s.n }

// At returns the i-th oldest element, 0 <= i < Len().
func (s *Seq[T]) At(i int) *T {
	if i += s.head; i >= s.n {
		i -= s.n
	}
	return &s.blocks[i/Len][i%Len]
}

// Runs calls fn with every element, oldest first, in the contiguous runs
// they are stored in.
func (s *Seq[T]) Runs(fn func(run []T)) {
	s.runs(s.head, s.n, fn)
	s.runs(0, s.head, fn)
}

// runs calls fn with the stored positions [from, to).
func (s *Seq[T]) runs(from, to int, fn func(run []T)) {
	for from < to {
		block := s.blocks[from/Len]
		off := from % Len
		end := min(len(block), off+to-from)
		fn(block[off:end])
		from += end - off
	}
}

// AppendTo appends the elements to dst, oldest first, growing it at most
// once.
func (s *Seq[T]) AppendTo(dst []T) []T {
	dst = slices.Grow(dst, s.n)
	s.Runs(func(run []T) { dst = append(dst, run...) })
	return dst
}

// Reset empties the sequence and keeps its blocks for the elements to come.
func (s *Seq[T]) Reset() { s.n, s.head = 0, 0 }
