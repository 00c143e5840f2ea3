package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// setProcs pins GOMAXPROCS — Tasks' only width input — for one test.
func setProcs(t *testing.T, p int) {
	t.Helper()
	old := runtime.GOMAXPROCS(p)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// Results stored by index come out in index order even when the first task
// finishes last.
func TestTasksKeepsIndexOrder(t *testing.T) {
	setProcs(t, 4)
	names := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	lastStarted := make(chan struct{})
	out := make([]string, len(names))
	Tasks(len(names), func(i int) {
		switch i {
		case len(names) - 1:
			close(lastStarted)
		case 0:
			// Task 0 returns only once the final task has started, which
			// requires the other workers to have drawn everything between.
			<-lastStarted
		}
		out[i] = "out:" + names[i]
	})
	for i, n := range names {
		if out[i] != "out:"+n {
			t.Errorf("out[%d] = %q, want %q", i, out[i], "out:"+n)
		}
	}
}

// The caller-side error pattern: errors land at their task's index and the
// lowest failing index is reported, not the failure that happened first. A
// failure cancels nothing — every index still runs exactly once.
func TestTasksLowestFailingIndexWins(t *testing.T) {
	setProcs(t, 4)
	const n = 8
	lateFailed := make(chan struct{})
	errs := make([]error, n)
	var ran [n]atomic.Int32
	Tasks(n, func(i int) {
		ran[i].Add(1)
		switch i {
		case 1:
			<-lateFailed // fails second in time, first by index
			errs[i] = errors.New("boom 1")
		case 5:
			errs[i] = errors.New("boom 5")
			close(lateFailed)
		}
	})
	var first error
	for _, err := range errs {
		if err != nil {
			first = err
			break
		}
	}
	if first == nil || first.Error() != "boom 1" {
		t.Errorf("first error by index = %v, want boom 1", first)
	}
	for i := range ran {
		if c := ran[i].Load(); c != 1 {
			t.Errorf("index %d ran %d times", i, c)
		}
	}
}

// Width is min(n, GOMAXPROCS), never more and — once n allows — never less;
// one worker means the caller's goroutine, ascending.
func TestTasksWidthClampedToN(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, n := range []int{0, 1, 2, 100} {
			t.Run(fmt.Sprintf("procs=%d/n=%d", procs, n), func(t *testing.T) {
				setProcs(t, procs)
				width := min(n, procs)
				var active, peak, arrived atomic.Int32
				full := make(chan struct{})
				var order []int // appended unlocked when width is 1: -race checks the claim
				ran := make([]atomic.Int32, n)
				Tasks(n, func(i int) {
					ran[i].Add(1)
					if width <= 1 {
						order = append(order, i)
						return
					}
					a := active.Add(1)
					for p := peak.Load(); a > p && !peak.CompareAndSwap(p, a); p = peak.Load() {
					}
					// The first `width` tasks hold their worker until all of
					// them are in flight: fewer workers than width would hang.
					if arrived.Add(1) == int32(width) {
						close(full)
					}
					select {
					case <-full:
					case <-time.After(10 * time.Second):
						t.Errorf("task %d: only %d of %d workers showed up", i, arrived.Load(), width)
					}
					active.Add(-1)
				})
				for i := range ran {
					if c := ran[i].Load(); c != 1 {
						t.Errorf("index %d ran %d times", i, c)
					}
				}
				if width <= 1 {
					for i, got := range order {
						if got != i {
							t.Fatalf("serial order %v", order)
						}
					}
					return
				}
				if p := int(peak.Load()); p != width {
					t.Errorf("peak concurrency %d, want %d", p, width)
				}
			})
		}
	}
}
