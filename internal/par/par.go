// Package par provides the data-parallel loop primitives used by the SPH
// pipeline: chunked parallel-for over index ranges and parallel reductions,
// implemented with plain goroutines and sync.WaitGroup.
//
// Work is split into contiguous chunks (one per worker) rather than
// fine-grained tasks: SPH loops are regular, so static chunking avoids
// scheduling overhead and keeps memory access streaming.
package par

import (
	"runtime"
	"sync"
)

// MaxWorkers returns the degree of parallelism used by For and Reduce.
func MaxWorkers() int { return runtime.GOMAXPROCS(0) }

// SerialGrain is the minimum number of iterations per worker before a loop
// is worth spawning goroutines for: below it, the goroutine spawn and
// WaitGroup synchronization cost more than the loop body (measured on the
// cheap passes — EOS, AVSwitches — at small particle counts).
const SerialGrain = 2048

// workersFor sizes the worker pool so each worker gets at least SerialGrain
// iterations; tiny loops collapse to a single inline worker.
func workersFor(n int) int {
	w := MaxWorkers()
	if g := (n + SerialGrain - 1) / SerialGrain; g < w {
		w = g
	}
	if w < 1 {
		w = 1
	}
	return w
}

// chunkAlign rounds per-worker chunk lengths up to this many elements
// (8 float64s = one 64-byte cache line), so adjacent workers writing
// contiguous ranges of a shared output slice never straddle the same line.
const chunkAlign = 8

// chunkSize returns the per-worker chunk length for n items over the given
// worker count, cache-line aligned. The partition is a pure function of
// (n, workers), so chunk boundaries — and therefore any per-chunk reduction
// order — are deterministic for a fixed GOMAXPROCS.
func chunkSize(n, workers int) int {
	c := (n + workers - 1) / workers
	if r := c % chunkAlign; r != 0 {
		c += chunkAlign - r
	}
	return c
}

// padded64 is a per-worker reduction slot padded out to a full cache line:
// workers publish partials concurrently, and unpadded adjacent float64s
// would ping-pong the shared line between cores on every store (false
// sharing — measurable on the scatter-heavy SPH pair passes).
type padded64 struct {
	v    float64
	used bool
	_    [55]byte
}

// For executes fn(i) for every i in [0, n) using up to MaxWorkers
// goroutines. fn must be safe to call concurrently for distinct i. Loops
// shorter than SerialGrain run inline on the calling goroutine.
func For(n int, fn func(i int)) {
	ForChunked(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// ForChunked splits [0, n) into contiguous chunks and executes fn(lo, hi)
// for each chunk concurrently. Useful when per-chunk setup (scratch buffers)
// amortizes across iterations. Loops shorter than SerialGrain run inline on
// the calling goroutine.
func ForChunked(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := workersFor(n)
	if workers == 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := chunkSize(n, workers)
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// SumFloat64 computes sum over i in [0, n) of fn(i) with a parallel
// tree-free reduction (one partial per worker, summed deterministically in
// worker order).
func SumFloat64(n int, fn func(i int) float64) float64 {
	if n <= 0 {
		return 0
	}
	workers := workersFor(n)
	if workers == 1 {
		s := 0.0
		for i := 0; i < n; i++ {
			s += fn(i)
		}
		return s
	}
	partials := make([]padded64, workers)
	var wg sync.WaitGroup
	chunk := chunkSize(n, workers)
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			s := 0.0
			for i := lo; i < hi; i++ {
				s += fn(i)
			}
			partials[w].v = s
		}(w, lo, hi)
	}
	wg.Wait()
	total := 0.0
	for w := range partials {
		total += partials[w].v
	}
	return total
}

// MinFloat64 computes the minimum of fn(i) over [0, n); it returns
// +Inf-equivalent fallback (the first value) semantics by requiring n > 0.
func MinFloat64(n int, fn func(i int) float64) float64 {
	if n <= 0 {
		panic("par: MinFloat64 requires n > 0")
	}
	workers := workersFor(n)
	if workers == 1 {
		m := fn(0)
		for i := 1; i < n; i++ {
			if v := fn(i); v < m {
				m = v
			}
		}
		return m
	}
	partials := make([]padded64, workers)
	var wg sync.WaitGroup
	chunk := chunkSize(n, workers)
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			m := fn(lo)
			for i := lo + 1; i < hi; i++ {
				if v := fn(i); v < m {
					m = v
				}
			}
			partials[w].v = m
			partials[w].used = true
		}(w, lo, hi)
	}
	wg.Wait()
	var m float64
	first := true
	for w := range partials {
		if !partials[w].used {
			continue
		}
		if first || partials[w].v < m {
			m = partials[w].v
			first = false
		}
	}
	return m
}

// Reduce splits [0, n) into contiguous chunks, evaluates fn(lo, hi) per
// chunk concurrently, and folds the per-chunk results with combine in
// ascending chunk order, so the result is deterministic for a fixed worker
// count. fn may carry side effects (e.g. filling per-chunk buffers) in
// addition to its reduction value. Returns 0 for n <= 0.
func Reduce(n int, fn func(lo, hi int) float64, combine func(a, b float64) float64) float64 {
	if n <= 0 {
		return 0
	}
	workers := workersFor(n)
	if workers == 1 {
		return fn(0, n)
	}
	partials := make([]padded64, workers)
	var wg sync.WaitGroup
	chunk := chunkSize(n, workers)
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			partials[w].v = fn(lo, hi)
			partials[w].used = true
		}(w, lo, hi)
	}
	wg.Wait()
	var acc float64
	first := true
	for w := range partials {
		if !partials[w].used {
			continue
		}
		if first {
			acc = partials[w].v
			first = false
		} else {
			acc = combine(acc, partials[w].v)
		}
	}
	return acc
}
