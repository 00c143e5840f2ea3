package par

import (
	"math"
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

func TestForChunkedCoversRange(t *testing.T) {
	const n = 1003
	visited := make([]int32, n)
	ForChunked(n, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d, %d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&visited[i], 1)
		}
	})
	for i, c := range visited {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForChunkedEmpty(t *testing.T) {
	called := false
	ForChunked(0, func(lo, hi int) { called = true })
	if called {
		t.Error("chunk callback invoked for empty range")
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
