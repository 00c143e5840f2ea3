package par

import (
	"runtime"
	"testing"
	"unsafe"
)

// scatterSum runs a pair-style scatter over a ring graph (each i adds 1 to
// itself and to (i+1) mod n, in slot 0 of stride slots) and returns the
// merged per-target totals.
func scatterSum(sc *Scatter, n, stride int) []float64 {
	bufs := sc.Run(n, n, stride, func(lo, hi int, acc []float64) {
		for i := lo; i < hi; i++ {
			acc[i*stride]++
			acc[((i+1)%n)*stride]++
		}
	})
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		for _, b := range bufs {
			out[i] += b[i*stride]
		}
	}
	return out
}

func TestScatterRingTotals(t *testing.T) {
	var sc Scatter
	for _, n := range []int{1, 7, 100, 30000} {
		for _, stride := range []int{1, 4, 6} {
			got := scatterSum(&sc, n, stride)
			for i, v := range got {
				if v != 2 {
					t.Fatalf("n=%d stride=%d: target %d accumulated %v, want 2", n, stride, i, v)
				}
			}
		}
	}
}

func TestScatterBuffersReusedAndZeroed(t *testing.T) {
	var sc Scatter
	// First call dirties the buffers; the second must see them zeroed and
	// must not allocate new backing arrays.
	first := sc.Run(100, 100, 2, func(lo, hi int, acc []float64) {
		for i := range acc {
			acc[i] = 99
		}
	})
	firstPtr := &first[0][0]
	second := sc.Run(100, 100, 2, func(lo, hi int, acc []float64) {
		for _, v := range acc {
			if v != 0 {
				t.Errorf("buffer not zeroed: %v", v)
				return
			}
		}
	})
	if &second[0][0] != firstPtr {
		t.Error("steady-state Run reallocated its buffer")
	}
}

func TestScatterChunkOrderDeterministic(t *testing.T) {
	// The returned buffer order must follow ascending chunks, so a
	// fixed-order merge of non-associative float sums is reproducible.
	var sc Scatter
	const n = 50000
	run := func() []float64 {
		bufs := sc.Run(n, 1, 1, func(lo, hi int, acc []float64) {
			for i := lo; i < hi; i++ {
				acc[0] += 1.0 / float64(i+1)
			}
		})
		out := make([]float64, len(bufs))
		for w, b := range bufs {
			out[w] = b[0]
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("buffer count changed between runs: %d vs %d", len(a), len(b))
	}
	for w := range a {
		if a[w] != b[w] {
			t.Errorf("chunk %d partial differs between identical runs: %v vs %v", w, a[w], b[w])
		}
	}
}

func TestScatterEmptyAndDegenerate(t *testing.T) {
	var sc Scatter
	if bufs := sc.Run(0, 10, 1, func(lo, hi int, acc []float64) { t.Error("body called") }); bufs != nil {
		t.Error("n=0 returned buffers")
	}
	if bufs := sc.Run(10, 0, 1, func(lo, hi int, acc []float64) { t.Error("body called") }); bufs != nil {
		t.Error("targets=0 returned buffers")
	}
}

func TestChunkSizeAlignedAndCovering(t *testing.T) {
	for _, n := range []int{1, 7, 8, 1000, 54321} {
		for workers := 1; workers <= 16; workers++ {
			c := chunkSize(n, workers)
			if c%chunkAlign != 0 && c < n {
				t.Errorf("chunkSize(%d, %d) = %d not aligned", n, workers, c)
			}
			if c*workers < n {
				t.Errorf("chunkSize(%d, %d) = %d does not cover the range", n, workers, c)
			}
		}
	}
}

func TestPadded64FillsCacheLine(t *testing.T) {
	// The padding math is easy to silently break when adding a field.
	if s := unsafe.Sizeof(padded64{}); s != 64 {
		t.Errorf("padded64 is %d bytes, want 64", s)
	}
}

func TestScatterUnderContention(t *testing.T) {
	// Exercise the multi-worker path even on 1-CPU machines.
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	var sc Scatter
	got := scatterSum(&sc, 40000, 3)
	for i, v := range got {
		if v != 2 {
			t.Fatalf("target %d accumulated %v, want 2", i, v)
		}
	}
}

// TestScatterFewerChunksThanWorkers pins Run where cache-line rounding of
// the chunk size launches fewer chunks than workersFor sizes the pool for:
// the buffer of the worker left without a range, dirty from a wider earlier
// call, must not come back.
func TestScatterFewerChunksThanWorkers(t *testing.T) {
	prev := runtime.GOMAXPROCS(512)
	defer runtime.GOMAXPROCS(prev)
	var sc Scatter
	count := func(n int) (chunks int, total float64) {
		bufs := sc.Run(n, 1, 1, func(lo, hi int, acc []float64) { acc[0] += float64(hi - lo) })
		for _, b := range bufs {
			total += b[0]
		}
		return len(bufs), total
	}
	if chunks, total := count(2_000_000); chunks != 512 || total != 2_000_000 {
		t.Fatalf("wide call: %d chunks summing to %v, want 512 and 2e6", chunks, total)
	}
	const n = 1_050_000
	chunks, total := count(n)
	if w := workersFor(n); chunks >= w {
		t.Fatalf("%d chunks for %d workers; the case no longer leaves a worker idle", chunks, w)
	}
	if total != n {
		t.Errorf("merged %v over %d chunks, want %d — a stale buffer was replayed", total, chunks, n)
	}
}

// FuzzScatterRun drives one Scatter through a sequence of calls whose item
// count, target count, stride and GOMAXPROCS all change, and holds every
// merge to a serial sum. Contributions are small integers, so the sums are
// exact in any order.
func FuzzScatterRun(f *testing.F) {
	f.Add([]byte{3, 200, 5, 2, 0, 1, 1, 1, 2, 90, 40, 6, 1, 255, 7, 3})
	f.Add([]byte{2, 255, 255, 6, 3, 8, 1, 1, 0, 0, 9, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		var sc Scatter
		for ; len(data) >= 4; data = data[4:] {
			runtime.GOMAXPROCS([]int{1, 2, 4, 32}[data[0]%4])
			n := int(data[1]) * 257 // up to 65 535: past SerialGrain × 31
			targets := 1 + int(data[2])
			stride := 1 + int(data[3])%6
			slot := func(i int) int { return (i%targets)*stride + i%stride }
			bufs := sc.Run(n, targets, stride, func(lo, hi int, acc []float64) {
				for i := lo; i < hi; i++ {
					acc[slot(i)] += float64(i%7 + 1)
				}
			})
			want := make([]float64, targets*stride)
			for i := 0; i < n; i++ {
				want[slot(i)] += float64(i%7 + 1)
			}
			for k, w := range want {
				got := 0.0
				for _, b := range bufs {
					got += b[k]
				}
				if got != w {
					t.Fatalf("n=%d targets=%d stride=%d procs=%d: slot %d merged %v, want %v",
						n, targets, stride, runtime.GOMAXPROCS(0), k, got, w)
				}
			}
		}
	})
}
