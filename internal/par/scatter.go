package par

// Scatter is a reusable scatter-add reduction for pair-interaction loops
// that write to both endpoints of every pair. A plain parallel-for cannot
// run such loops — the scatter to the far endpoint races with the chunk
// that owns it — so Run gives every chunk a private dense accumulator
// (targets × stride float64s) and the caller merges the per-chunk buffers
// afterwards, typically with Chunked over the targets so the merge
// parallelizes over disjoint output ranges and needs no atomics.
//
// Each buffer is a separately allocated slice, so no two chunks ever
// write the same cache line. Buffers are owned by the Scatter value and
// reused across calls: a steady-state call allocates nothing beyond what
// Chunked spawns (nothing at one chunk).
type Scatter struct {
	bufs [][]float64
}

// Run invokes body(lo, hi, acc) on every Chunked range of [0, n)
// concurrently, where acc is that chunk's private zeroed accumulator: the
// slot of target t is acc[t*stride : (t+1)*stride]. It returns the
// Chunks(n) buffers in ascending chunk order, so a fixed-order merge is
// deterministic for a given worker count. The returned slices alias the
// Scatter's storage and are valid until the next Run.
func (sc *Scatter) Run(n, targets, stride int, body func(lo, hi int, acc []float64)) [][]float64 {
	if n <= 0 || targets <= 0 || stride <= 0 {
		return nil
	}
	chunks := Chunks(n)
	if len(sc.bufs) < chunks {
		grown := make([][]float64, chunks)
		copy(grown, sc.bufs)
		sc.bufs = grown
	}
	bufs := sc.bufs[:chunks]
	size := targets * stride
	for c := range bufs {
		if cap(bufs[c]) < size {
			bufs[c] = make([]float64, size)
		} else {
			bufs[c] = bufs[c][:size]
		}
	}
	if chunks == 1 {
		// Inline, without the closure Chunked would take.
		clear(bufs[0])
		body(0, n, bufs[0])
		return bufs
	}
	Chunked(n, func(c, lo, hi int) {
		clear(bufs[c])
		body(lo, hi, bufs[c])
	})
	return bufs
}
