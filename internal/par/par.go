// Package par provides the data-parallel loop primitives used by the SPH
// pipeline: chunked parallel-for over index ranges and parallel reductions,
// implemented with plain goroutines and sync.WaitGroup.
//
// Every index-range loop is cut by one partition, Chunks and Chunked:
// contiguous, cache-line-aligned ranges of at least SerialGrain items, at
// most one per worker. SPH loops are regular, so static chunking avoids
// scheduling overhead and keeps memory access streaming; and since the cut
// is a pure function of n and GOMAXPROCS, so is every per-chunk reduction
// order. Coarse tasks of uneven size go through Tasks instead.
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
// worker count, cache-line aligned.
func chunkSize(n, workers int) int {
	c := (n + workers - 1) / workers
	if r := c % chunkAlign; r != 0 {
		c += chunkAlign - r
	}
	return c
}

// Chunks returns how many ranges Chunked cuts [0, n) into: 0 for n <= 0, 1
// below 2·SerialGrain or at one worker. Rounding the chunk length up to a
// cache line can leave fewer chunks than workers.
func Chunks(n int) int {
	if n <= 0 {
		return 0
	}
	c := chunkSize(n, workersFor(n))
	return (n + c - 1) / c
}

// Chunked cuts [0, n) into Chunks(n) contiguous ranges and runs fn(c, lo,
// hi) for chunk c = [lo, hi) of them, concurrently; c ascends with lo, so a
// caller that keeps per-chunk results at index c reads them back in range
// order. A single chunk runs inline on the calling goroutine. fn must be
// safe to call concurrently for distinct chunks.
func Chunked(n int, fn func(c, lo, hi int)) {
	if n <= 0 {
		return
	}
	size := chunkSize(n, workersFor(n))
	if size >= n {
		fn(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for c, lo := 0, 0; lo < n; c, lo = c+1, lo+size {
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			fn(c, lo, hi)
		}(c, lo, min(lo+size, n))
	}
	wg.Wait()
}

// padded64 is a per-chunk reduction slot padded out to a full cache line:
// chunks publish partials concurrently, and unpadded adjacent float64s
// would ping-pong the shared line between cores on every store (false
// sharing — measurable on the scatter-heavy SPH pair passes).
type padded64 struct {
	v float64
	_ [56]byte
}

// For executes fn(i) for every i in [0, n), one Chunked range per
// goroutine. fn must be safe to call concurrently for distinct i.
func For(n int, fn func(i int)) {
	Chunked(n, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// MinFloat64 returns the minimum of fn(i) over [0, n): a Reduce whose fold
// keeps the smaller. It panics for n <= 0: an empty range has no minimum.
func MinFloat64(n int, fn func(i int) float64) float64 {
	if n <= 0 {
		panic("par: MinFloat64 requires n > 0")
	}
	if Chunks(n) == 1 {
		// Inline, without the closure Reduce would take.
		return minOver(fn, 0, n)
	}
	return Reduce(n, func(lo, hi int) float64 { return minOver(fn, lo, hi) }, lesser)
}

// minOver is the minimum of fn over [lo, hi), which is not empty.
func minOver(fn func(i int) float64, lo, hi int) float64 {
	m := fn(lo)
	for i := lo + 1; i < hi; i++ {
		if v := fn(i); v < m {
			m = v
		}
	}
	return m
}

// lesser is MinFloat64's fold: b where b < a, else a.
func lesser(a, b float64) float64 {
	if b < a {
		return b
	}
	return a
}

// Reduce evaluates fn(lo, hi) on every Chunked range concurrently and
// folds the per-chunk results with combine in ascending chunk order, so
// the result is deterministic for a fixed worker count. fn may carry side
// effects (e.g. filling per-chunk buffers) in addition to its reduction
// value. Returns 0 for n <= 0.
func Reduce(n int, fn func(lo, hi int) float64, combine func(a, b float64) float64) float64 {
	switch chunks := Chunks(n); chunks {
	case 0:
		return 0
	case 1:
		return fn(0, n)
	default:
		partials := make([]padded64, chunks)
		Chunked(n, func(c, lo, hi int) { partials[c].v = fn(lo, hi) })
		acc := partials[0].v
		for _, p := range partials[1:] {
			acc = combine(acc, p.v)
		}
		return acc
	}
}
