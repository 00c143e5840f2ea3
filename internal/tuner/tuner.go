// Package tuner reimplements the KernelTuner workflow the paper uses in
// §III-C: run one GPU kernel repeatedly over a search space of tunable
// parameters — here the device-wise GPU compute frequency — measuring
// time-to-solution and energy, and pick the configuration that optimizes a
// chosen objective (EDP by default).
//
// The entry point mirrors KernelTuner's tune_kernel(kernel_name,
// kernel_source, problem_size, params): the kernel "source" is a
// gpusim.KernelDesc generator, the problem size fixes the work items, and
// params bounds the candidate frequency range.
package tuner

import (
	"fmt"
	"sort"

	"sphenergy/internal/events"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/par"
)

// Objective scores one measured configuration; lower is better.
type Objective func(timeS, energyJ float64) float64

// EDP minimizes the energy-delay product, the paper's tuning metric.
var EDP Objective = func(t, e float64) float64 { return t * e }

// Params is the tunable-parameter dictionary. Frequency is the only
// device-wise parameter the paper tunes; the struct leaves room for the
// usual kernel parameters without implementing dead code.
type Params struct {
	// MinMHz/MaxMHz bound the candidate list: every supported clock in
	// [MinMHz, MaxMHz] (the paper uses 1005–1410 MHz, having found lower
	// clocks unprofitable). Zero means the device's own bound.
	MinMHz, MaxMHz int
}

// iterations is the number of times each configuration is measured and
// averaged, as KernelTuner benchmarks each configuration several times.
const iterations = 3

// Config configures a tuning session. The search is KernelTuner's default
// brute force: every candidate clock is measured.
type Config struct {
	Spec      gpusim.Spec
	Params    Params
	Objective Objective
	// Cache, when non-nil, memoizes device measurements across tuning
	// sessions keyed by (spec, kernel descriptor, MHz); repeat sweeps replay
	// cached time/energy bit-identically instead of re-measuring.
	// Evaluations still counts every logical evaluation, so a Result is
	// byte-identical with or without a cache.
	Cache *Cache
	// Events, when non-nil, receives one tuner-measure event per evaluated
	// candidate (measured time/energy/score, cache-hit flag), in candidate
	// order, and one tuner-select event per kernel — the decision ledger's
	// record of why ManDyn's table says what it says.
	Events *events.Ledger
}

// Measurement is one evaluated configuration.
type Measurement struct {
	MHz     int
	TimeS   float64
	EnergyJ float64
	Score   float64
}

// Result is the outcome of TuneKernel.
type Result struct {
	Best Measurement
	// All contains every candidate configuration, sorted by descending MHz
	// (the Fig. 2 table rows).
	All []Measurement
	// Evaluations counts device measurements performed.
	Evaluations int
}

// candidates resolves the candidate frequency list, descending.
func (c Config) candidates() []int {
	min, max := c.Params.MinMHz, c.Params.MaxMHz
	if max == 0 {
		max = c.Spec.MaxSMClockMHz
	}
	if min == 0 {
		min = c.Spec.MinSMClockMHz
	}
	var out []int
	for _, f := range c.Spec.SupportedClocksMHz() {
		if f >= min && f <= max {
			out = append(out, f)
		}
	}
	return out
}

// measure runs the kernel at a locked clock on a fresh device and returns
// the time and energy averaged over the measurement iterations.
func measure(spec gpusim.Spec, kernel gpusim.KernelDesc, mhz int) Measurement {
	dev := gpusim.NewDevice(spec, 0)
	if _, err := dev.SetApplicationClocks(0, mhz); err != nil {
		panic(fmt.Sprintf("tuner: %v", err))
	}
	var timeS, energy float64
	for i := 0; i < iterations; i++ {
		e0 := dev.EnergyJ()
		timeS += dev.Launch(&kernel)
		energy += dev.EnergyJ() - e0
	}
	return Measurement{MHz: mhz, TimeS: timeS / iterations, EnergyJ: energy / iterations}
}

// TuneKernel measures the kernel at every candidate clock and picks the
// best configuration under the configured objective.
func TuneKernel(kernelName string, kernel gpusim.KernelDesc, cfg Config) (*Result, error) {
	if cfg.Objective == nil {
		cfg.Objective = EDP
	}
	cands := cfg.candidates()
	if len(cands) == 0 {
		return nil, fmt.Errorf("tuner: empty frequency search space")
	}
	kernel.Name = kernelName

	// The sweep's candidates are independent measurements on fresh
	// simulated devices, so they go through par.Tasks; each result and its
	// cache-hit flag land at the candidate's index, and the ledger rows are
	// emitted from there once the sweep is done, in the order of a serial
	// sweep whichever worker finished when.
	res := &Result{All: make([]Measurement, len(cands)), Evaluations: len(cands)}
	cached := make([]bool, len(cands))
	par.Tasks(len(cands), func(i int) {
		mhz := cands[i]
		var m Measurement
		if cfg.Cache != nil {
			k := cfg.Cache.key(cfg.Spec, kernel, mhz)
			if m, cached[i] = cfg.Cache.get(k); !cached[i] {
				m = measure(cfg.Spec, kernel, mhz)
				cfg.Cache.put(k, m)
			}
		} else {
			m = measure(cfg.Spec, kernel, mhz)
		}
		m.Score = cfg.Objective(m.TimeS, m.EnergyJ)
		res.All[i] = m
	})
	best := res.All[0]
	for _, m := range res.All[1:] {
		if m.Score < best.Score {
			best = m
		}
	}
	res.Best = best
	if cfg.Events != nil {
		for i, m := range res.All {
			cfg.Events.Emit(events.Event{
				Step: -1, Rank: -1, Type: events.TunerMeasure,
				Subject: kernelName, AppliedMHz: m.MHz,
				PredTimeS: m.TimeS, PredEnergyJ: m.EnergyJ,
				PredPowerW: powerW(m), PredEDPJs: m.TimeS * m.EnergyJ,
				Value: m.Score, Cached: cached[i],
			})
		}
		cfg.Events.Emit(events.Event{
			Step: -1, Rank: -1, Type: events.TunerSelect,
			Subject: kernelName, AppliedMHz: best.MHz,
			PredTimeS: best.TimeS, PredEnergyJ: best.EnergyJ,
			PredPowerW: powerW(best), PredEDPJs: best.TimeS * best.EnergyJ,
			Value: best.Score,
		})
	}
	return res, nil
}

// powerW derives the mean power of a measurement (0 when time is zero).
func powerW(m Measurement) float64 {
	if m.TimeS <= 0 {
		return 0
	}
	return m.EnergyJ / m.TimeS
}

// TuneTable tunes every kernel in a named set and returns the
// function→frequency table that ManDyn consumes, plus the per-kernel
// results. This is the paper's Fig. 2 workflow: fixed problem size, EDP
// objective, frequency range 1005–1410 MHz.
func TuneTable(kernels map[string]gpusim.KernelDesc, cfg Config) (map[string]int, map[string]*Result, error) {
	table := make(map[string]int, len(kernels))
	results := make(map[string]*Result, len(kernels))
	names := make([]string, 0, len(kernels))
	for n := range kernels {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, name := range names {
		r, err := TuneKernel(name, kernels[name], cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("tuner: %s: %w", name, err)
		}
		table[name] = r.Best.MHz
		results[name] = r
	}
	return table, results, nil
}
