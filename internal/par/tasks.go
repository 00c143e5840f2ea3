package par

import (
	"sync"
	"sync/atomic"
)

// Tasks runs fn(i) for every i in [0, n), where each call is a coarse,
// independent task of uneven size — a whole simulated run, one tuner
// candidate, one experiment — rather than an iteration of a regular loop.
// Indices are handed out one at a time, in ascending order, from a shared
// counter to min(n, MaxWorkers()) goroutines, the caller being one of them;
// with one worker the loop runs serially on the caller. A long task thus
// delays only the worker that drew it, and a caller that knows its task
// sizes orders them largest first.
//
// fn must be safe to call concurrently for distinct i. It reports through
// state indexed by i; that is how callers keep results in submission order
// and return the error of the lowest failing index — what the serial loop
// would have returned first — whichever worker finished when.
func Tasks(n int, fn func(i int)) {
	workers := min(n, MaxWorkers())
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	drain := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
}
