package experiments

import "sphenergy/internal/par"

// The paper's method is a campaign of independent runs — clocks per
// function, allocations per system, strategies per workload — so the run is
// the unit of host parallelism here: every driver hands its runs to
// par.Tasks, stores what it keeps of each by index, and reports the error of
// the lowest failing index. Whatever the width (GOMAXPROCS), every rendered
// byte is what the serial loop printed.

// runEach performs n independent runs and returns their results in index
// order.
func runEach[T any](n int, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	errs := make([]error, n)
	par.Tasks(n, func(i int) { out[i], errs[i] = run(i) })
	return out, firstErr(errs)
}

// firstErr returns the error of the lowest failing index, the one a serial
// loop would have stopped at.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
