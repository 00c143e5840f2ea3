package par

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 10000} {
		counts := make([]int32, n)
		For(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
}

// TestForChunkedCoversRange holds every launcher of the package to the one
// partition: Chunked covers [0, n) once, in Chunks(n) contiguous ranges
// ascending in c; Reduce evaluates one partial per chunk, and Scatter.Run
// returns one buffer per chunk, at every width.
func TestForChunkedCoversRange(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var sc Scatter
	for _, procs := range []int{1, 2, 4, 512} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, 1003, SerialGrain - 1, SerialGrain, SerialGrain + 1, 2*SerialGrain - 1, 2 * SerialGrain,
			2*SerialGrain + 1, 4*SerialGrain + 7, 512*SerialGrain - 8, 512*SerialGrain + 1} {
			t.Run(fmt.Sprintf("procs=%d/n=%d", procs, n), func(t *testing.T) {
				chunks := Chunks(n)
				los, his := make([]int, chunks), make([]int, chunks)
				visited := make([]int32, n)
				var calls atomic.Int32
				Chunked(n, func(c, lo, hi int) {
					calls.Add(1)
					if c < 0 || c >= chunks || lo >= hi {
						t.Errorf("bad chunk %d = [%d, %d) of %d", c, lo, hi, chunks)
						return
					}
					los[c], his[c] = lo, hi
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&visited[i], 1)
					}
				})
				if int(calls.Load()) != chunks {
					t.Fatalf("Chunked made %d calls, Chunks says %d", calls.Load(), chunks)
				}
				end := 0
				for c := range los {
					if los[c] != end {
						t.Fatalf("chunk %d starts at %d, want %d", c, los[c], end)
					}
					end = his[c]
				}
				if end != n {
					t.Fatalf("last chunk ends at %d, want %d", end, n)
				}
				for i, v := range visited {
					if v != 1 {
						t.Fatalf("index %d visited %d times", i, v)
					}
				}
				calls.Store(0)
				sum := Reduce(n, func(lo, hi int) float64 { calls.Add(1); return float64(hi - lo) }, func(a, b float64) float64 { return a + b })
				if int(calls.Load()) != chunks || sum != float64(n) {
					t.Errorf("Reduce: %d partials summing to %v, want %d and %d", calls.Load(), sum, chunks, n)
				}
				if bufs := sc.Run(n, 1, 1, func(lo, hi int, acc []float64) { acc[0] += float64(hi - lo) }); len(bufs) != chunks {
					t.Errorf("Scatter.Run returned %d buffers, want %d", len(bufs), chunks)
				}
			})
		}
	}
}

func TestForChunkedEmpty(t *testing.T) {
	for _, n := range []int{0, -1} {
		Chunked(n, func(c, lo, hi int) { t.Errorf("chunk callback invoked for n=%d", n) })
		if c := Chunks(n); c != 0 {
			t.Errorf("Chunks(%d) = %d, want 0", n, c)
		}
	}
}

func TestMinMatchesSerial(t *testing.T) {
	const n = 9999
	f := func(i int) float64 { return math.Cos(float64(i)) * float64((i%17)+1) }
	got := MinFloat64(n, f)
	want := f(0)
	for i := 1; i < n; i++ {
		if v := f(i); v < want {
			want = v
		}
	}
	if got != want {
		t.Errorf("MinFloat64 = %v, want %v", got, want)
	}
}

func TestMinSingleElement(t *testing.T) {
	if got := MinFloat64(1, func(int) float64 { return 42 }); got != 42 {
		t.Errorf("MinFloat64(1) = %v", got)
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MinFloat64(0, ...) did not panic")
		}
	}()
	MinFloat64(0, func(int) float64 { return 0 })
}

func TestMaxWorkersPositive(t *testing.T) {
	if MaxWorkers() < 1 {
		t.Errorf("MaxWorkers = %d", MaxWorkers())
	}
}
