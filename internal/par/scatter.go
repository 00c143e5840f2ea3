package par

import "sync"

// Scatter is a reusable scatter-add reduction for pair-interaction loops
// that write to both endpoints of every pair. A plain parallel-for cannot
// run such loops — the scatter to the far endpoint races with the worker
// that owns it — so Run gives every worker a private dense accumulator
// (targets × stride float64s) and the caller merges the per-worker buffers
// afterwards, typically with ForChunked over the targets so the merge
// parallelizes over disjoint output ranges and needs no atomics.
//
// Each buffer is a separately allocated slice, so no two workers ever
// write the same cache line. Buffers are owned by the Scatter value and
// reused across calls: a steady-state call allocates nothing beyond the
// goroutines the rest of the par package also spawns (none at one worker).
type Scatter struct {
	bufs [][]float64
}

// Run partitions [0, n) into one contiguous cache-line-aligned chunk per
// worker and invokes body(lo, hi, acc) concurrently, where acc is that
// worker's private zeroed accumulator: the slot of target t is
// acc[t*stride : (t+1)*stride]. It returns the live buffers in ascending
// chunk order, so a fixed-order merge is deterministic for a given worker
// count. The returned slices alias the Scatter's storage and are valid
// until the next Run.
func (sc *Scatter) Run(n, targets, stride int, body func(lo, hi int, acc []float64)) [][]float64 {
	if n <= 0 || targets <= 0 || stride <= 0 {
		return nil
	}
	workers := workersFor(n)
	chunk := chunkSize(n, workers)
	// Buffers are sized, cleared and returned by the chunks actually
	// launched, not by workers: chunkSize rounds up to a cache line, so the
	// last workers can be left without a range (1 050 000 items at
	// GOMAXPROCS 512 make 511 chunks), and a buffer that no chunk cleared
	// would replay an earlier call's sums into the caller's merge.
	live := (n + chunk - 1) / chunk
	if len(sc.bufs) < live {
		grown := make([][]float64, live)
		copy(grown, sc.bufs)
		sc.bufs = grown
	}
	size := targets * stride
	for w := 0; w < live; w++ {
		if cap(sc.bufs[w]) < size {
			sc.bufs[w] = make([]float64, size)
		} else {
			sc.bufs[w] = sc.bufs[w][:size]
		}
	}
	if live == 1 {
		clear(sc.bufs[0])
		body(0, n, sc.bufs[0])
		return sc.bufs[:1]
	}
	var wg sync.WaitGroup
	for w := 0; w < live; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		buf := sc.bufs[w]
		wg.Add(1)
		go func(lo, hi int, buf []float64) {
			defer wg.Done()
			clear(buf)
			body(lo, hi, buf)
		}(lo, hi, buf)
	}
	wg.Wait()
	return sc.bufs[:live]
}
