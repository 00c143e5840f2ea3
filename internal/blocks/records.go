package blocks

import "encoding/binary"

// RecordBlock is the size in bytes of a block of a Records store.
const RecordBlock = 8 << 10

// Records is a sequence of byte records in pointer-free blocks of
// RecordBlock bytes (a record longer than that gets a block of its own
// size): unbounded as its zero value, or — made by BoundedRecords — a ring
// that holds the newest records up to its bound. A record never straddles
// two blocks, so a block is a run of whole records that a reader can take
// apart on its own. A block is allocated when the store first reaches it;
// the oldest block, once every record in it is dropped, is kept for the
// records to come and any kept before it freed, as Seq.Drop does, so a ring
// that rotates records of a steady size does not allocate.
//
// A store holds records of one of two kinds. Push appends a record behind
// its length, as a uvarint, and Each reads such records back; only those a
// bound can drop, for it finds the oldest record's end by its length. Tail
// and Commit append a record that delimits itself, in a format the caller
// owns and reads back itself, block by block (Block).
//
// It is not safe for concurrent use: each belongs to the goroutine that
// drives its owner's run.
type Records struct {
	blocks [][]byte // each as long as the records in it; blocks[0] holds the oldest, at off
	off    int
	n      int // records held
	bound  int // most records held; 0 for no bound
	spare  []byte
}

// BoundedRecords returns a store that holds at most bound length-prefixed
// records.
func BoundedRecords(bound int) Records { return Records{bound: bound} }

// Len returns the number of records held.
func (r *Records) Len() int { return r.n }

// Tail returns the newest block with room for need more bytes past its
// records, starting a block when the newest has less; fresh reports that
// it did, so that a record appended to tail is its block's first. The
// caller appends one record to tail and hands the result to Commit before
// the store is used again.
func (r *Records) Tail(need int) (tail []byte, fresh bool) {
	if last := len(r.blocks) - 1; last >= 0 && cap(r.blocks[last])-len(r.blocks[last]) >= need {
		return r.blocks[last], false
	}
	block := r.spare
	if cap(block) < need {
		block = make([]byte, 0, max(RecordBlock, need))
	}
	r.blocks, r.spare = append(r.blocks, block[:0]), nil
	return r.blocks[len(r.blocks)-1], true
}

// Commit stores tail, as Tail returned it with one record appended.
func (r *Records) Commit(tail []byte) {
	r.blocks[len(r.blocks)-1] = tail
	r.n++
}

// Push appends rec behind its length, dropping the oldest record first
// when the store is full.
func (r *Records) Push(rec []byte) {
	if r.bound != 0 && r.n == r.bound {
		r.drop()
	}
	tail, _ := r.Tail(binary.MaxVarintLen64 + len(rec))
	r.Commit(append(binary.AppendUvarint(tail, uint64(len(rec))), rec...))
}

// drop lets go of the oldest length-prefixed record.
func (r *Records) drop() {
	front := r.blocks[0]
	size, k := binary.Uvarint(front[r.off:])
	r.off += k + int(size)
	r.n--
	if r.off == len(front) {
		r.spare = front
		kept := copy(r.blocks, r.blocks[1:])
		r.blocks[kept] = nil
		r.blocks, r.off = r.blocks[:kept], 0
	}
}

// Each calls fn with every length-prefixed record, oldest first.
func (r *Records) Each(fn func(rec []byte)) {
	for i := range r.blocks {
		block := r.Block(i)
		for at := 0; at < len(block); {
			size, k := binary.Uvarint(block[at:])
			at += k
			fn(block[at : at+int(size)])
			at += int(size)
		}
	}
}

// Blocks returns the number of blocks that hold records.
func (r *Records) Blocks() int { return len(r.blocks) }

// Block returns the records of the i-th oldest block, 0 <= i < Blocks(),
// back to back; its capacity runs to the block's end. A block keeps its
// index while nothing is dropped.
func (r *Records) Block(i int) []byte {
	if i == 0 {
		return r.blocks[0][r.off:]
	}
	return r.blocks[i]
}
