// Package blocks holds the growing record buffers of the observers in
// fixed-size blocks: Seq, a sequence of fixed-size elements (a sampler
// channel's tick series), and Records, a sequence of variable-length byte
// records (a tracer shard's events, the decision ledger's rows). A slice
// grown by append moves everything it holds each time it outgrows its
// array, a quarter at a time once it is long: a run's million-odd records
// were each copied four or five times that way, and every abandoned array
// was garbage. A block is allocated when the sequence first reaches it and
// never moved, so a record is written once, an element's address stays
// valid while it is held, and a bounded sequence that the run did not fill
// retains what it used, not its bound. A sequence lets go of its oldest
// elements a whole block at a time: the block goes to the back for the
// elements to come, so a sequence that is read and dropped as it grows
// holds what is left to read, not all it was given.
package blocks

// Len is the number of elements in a block.
const Len = 512

// Seq is a sequence of T in blocks: unbounded as its zero value, or — made
// by Bounded — a ring that holds the newest elements up to its bound.
// It is not safe for concurrent use: each belongs to the goroutine that
// drives its owner's run.
type Seq[T any] struct {
	blocks [][]T // blocks[0] holds the oldest element, at off
	off    int
	n      int // elements held
	bound  int // most elements held; 0 for no bound
	spare  []T // a block the front let go of, for the back to take
}

// Bounded returns a sequence that holds at most bound elements.
func Bounded[T any](bound int) Seq[T] { return Seq[T]{bound: bound} }

// Push makes room for one more element and returns it for the caller to
// assign: what it holds is stale. A bounded sequence that is full gives up
// its oldest element for it and reports dropped.
func (s *Seq[T]) Push() (slot *T, dropped bool) {
	if s.bound != 0 && s.n == s.bound {
		s.Drop(1)
		dropped = true
	}
	at := s.off + s.n
	b := at / Len
	if b == len(s.blocks) {
		block := s.spare
		if block == nil {
			block = make([]T, Len)
		}
		s.blocks, s.spare = append(s.blocks, block), nil
	}
	s.n++
	return &s.blocks[b][at%Len], dropped
}

// Drop lets go of the k oldest elements, 0 <= k <= Len(). A block left
// empty is kept for the elements to come; any before it are freed.
func (s *Seq[T]) Drop(k int) {
	s.n -= k
	s.off += k
	if gone := s.off / Len; gone > 0 {
		s.spare = s.blocks[gone-1]
		kept := copy(s.blocks, s.blocks[gone:])
		clear(s.blocks[kept:])
		s.blocks = s.blocks[:kept]
		s.off -= gone * Len
	}
}

// Len returns the number of elements held.
func (s *Seq[T]) Len() int { return s.n }

// At returns the i-th oldest element, 0 <= i < Len().
func (s *Seq[T]) At(i int) *T {
	i += s.off
	return &s.blocks[i/Len][i%Len]
}
