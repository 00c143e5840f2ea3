// Package tuner reimplements the KernelTuner workflow the paper uses in
// §III-C: run one GPU kernel repeatedly over a search space of tunable
// parameters — here the device-wise GPU compute frequency — measuring
// time-to-solution and energy, and pick the configuration that optimizes a
// chosen objective (EDP by default).
//
// The entry point mirrors KernelTuner's tune_kernel(kernel_name,
// kernel_source, problem_size, params): the kernel "source" is a
// gpusim.KernelDesc generator, the problem size fixes the work items, and
// params carries the candidate frequency list.
package tuner

import (
	"fmt"
	"sort"
	"strconv"
	"sync/atomic"

	"sphenergy/internal/events"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/par"
	"sphenergy/internal/rng"
	"sphenergy/internal/telemetry"
)

// Objective scores one measured configuration; lower is better.
type Objective func(timeS, energyJ float64) float64

// Built-in objectives.
var (
	// TimeToSolution minimizes kernel duration.
	TimeToSolution Objective = func(t, _ float64) float64 { return t }
	// EnergyToSolution minimizes kernel energy.
	EnergyToSolution Objective = func(_, e float64) float64 { return e }
	// EDP minimizes the energy-delay product, the paper's tuning metric.
	EDP Objective = func(t, e float64) float64 { return t * e }
	// ED2P minimizes energy × delay², biased further toward performance.
	ED2P Objective = func(t, e float64) float64 { return t * t * e }
)

// StrategyKind selects the search strategy, as KernelTuner's `strategy=`.
type StrategyKind string

// Search strategies.
const (
	// BruteForce evaluates the entire search space (KernelTuner's default).
	BruteForce StrategyKind = "brute_force"
	// RandomSample evaluates a random subset of the space.
	RandomSample StrategyKind = "random_sample"
	// HillClimb starts at the maximum clock and walks downhill greedily.
	HillClimb StrategyKind = "greedy_ils"
)

// Params is the tunable-parameter dictionary. Frequency is the only
// device-wise parameter the paper tunes; the struct leaves room for the
// usual kernel parameters without implementing dead code.
type Params struct {
	// FrequenciesMHz is the candidate application-clock list. Empty means
	// all supported clocks in [MinMHz, MaxMHz].
	FrequenciesMHz []int
	// MinMHz/MaxMHz bound the default candidate list (the paper uses
	// 1005–1410 MHz, having found lower clocks unprofitable).
	MinMHz, MaxMHz int
}

// Config configures a tuning session.
type Config struct {
	Spec      gpusim.Spec
	Params    Params
	Objective Objective
	Strategy  StrategyKind
	// Iterations is the number of times each configuration is measured
	// (KernelTuner benchmarks each configuration several times); the
	// simulated device is deterministic, so this mainly exercises the
	// averaging path. Default 3.
	Iterations int
	// SampleFraction for RandomSample (default 0.5).
	SampleFraction float64
	// Seed for RandomSample and measurement noise.
	Seed uint64
	// NoiseRel injects relative Gaussian measurement noise (e.g. 0.02 for
	// 2%) into each time/energy sample, modeling the run-to-run variation
	// real KernelTuner measurements face; Iterations averages it out.
	NoiseRel float64
	// Metrics, when non-nil, receives the sweep's progress: evaluation
	// counts and per-candidate time/energy/score gauges labeled by kernel
	// and frequency, read back through the registry's snapshot.
	Metrics *telemetry.Registry
	// Cache, when non-nil, memoizes device measurements across tuning
	// sessions keyed by (spec, kernel descriptor, MHz, iterations, noise
	// stream); repeat sweeps replay cached time/energy bit-identically
	// instead of re-measuring. Evaluations still counts every logical
	// evaluation, so a Result is byte-identical with or without a cache.
	Cache *Cache
	// Events, when non-nil, receives one tuner-measure event per evaluated
	// candidate (measured time/energy/score, cache-hit flag) and one
	// tuner-select event per kernel — the decision ledger's record of why
	// ManDyn's table says what it says. Concurrent sweeps emit measure
	// events in completion order; consumers must key on (kernel, MHz), not
	// arrival order.
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
	KernelName string
	Best       Measurement
	// All contains every evaluated configuration, sorted by descending MHz
	// (the Fig. 2 table rows).
	All []Measurement
	// Evaluations counts device measurements performed.
	Evaluations int
}

// candidates resolves the candidate frequency list.
func (c Config) candidates() []int {
	if len(c.Params.FrequenciesMHz) > 0 {
		out := append([]int(nil), c.Params.FrequenciesMHz...)
		sort.Sort(sort.Reverse(sort.IntSlice(out)))
		return out
	}
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
// the averaged time and energy. noiseVals, when non-nil, supplies the
// 2*iterations pre-drawn Gaussian factors for per-sample measurement noise
// (time then energy, per iteration); pre-drawing decouples the noise
// stream's consumption order from the measurement schedule, so candidates
// can be measured concurrently without perturbing rng-seeded results.
func measure(spec gpusim.Spec, kernel gpusim.KernelDesc, mhz, iterations int, noiseRel float64, noiseVals []float64) Measurement {
	dev := gpusim.NewDevice(spec, 0)
	if _, err := dev.SetApplicationClocks(0, mhz); err != nil {
		panic(fmt.Sprintf("tuner: %v", err))
	}
	var timeS, energy float64
	for i := 0; i < iterations; i++ {
		e0 := dev.EnergyJ()
		dt := dev.Execute(kernel)
		de := dev.EnergyJ() - e0
		if noiseRel > 0 && noiseVals != nil {
			dt *= 1 + noiseRel*noiseVals[2*i]
			de *= 1 + noiseRel*noiseVals[2*i+1]
		}
		timeS += dt
		energy += de
	}
	n := float64(iterations)
	return Measurement{MHz: mhz, TimeS: timeS / n, EnergyJ: energy / n}
}

// TuneKernel searches the frequency space for the kernel's best
// configuration under the configured objective.
func TuneKernel(kernelName string, kernel gpusim.KernelDesc, cfg Config) (*Result, error) {
	if cfg.Objective == nil {
		cfg.Objective = EDP
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = 3
	}
	if cfg.Strategy == "" {
		cfg.Strategy = BruteForce
	}
	cands := cfg.candidates()
	if len(cands) == 0 {
		return nil, fmt.Errorf("tuner: empty frequency search space")
	}
	kernel.Name = kernelName

	res := &Result{KernelName: kernelName}
	var noise *rng.Rand
	if cfg.NoiseRel > 0 {
		noise = rng.New(cfg.Seed + 0x9E37)
	}
	evals := cfg.Metrics.Counter("tuner_evaluations_total",
		"frequency configurations measured", telemetry.L("kernel", kernelName))
	// drawNoise hands out the next 2*Iterations factors of the shared noise
	// stream. Callers draw in candidate order, so seeded results stay
	// bit-identical whether candidates are then measured serially or
	// concurrently.
	drawNoise := func() []float64 {
		if noise == nil {
			return nil
		}
		out := make([]float64, 2*cfg.Iterations)
		for i := range out {
			out[i] = noise.Norm()
		}
		return out
	}
	var evalCount int64
	evalWith := func(mhz int, noiseVals []float64) Measurement {
		var m Measurement
		fromCache := false
		if cfg.Cache != nil {
			k := cfg.Cache.key(cfg.Spec, kernel, mhz, cfg.Iterations, cfg.NoiseRel, noiseVals)
			cached, ok := cfg.Cache.get(k)
			if ok {
				m, fromCache = cached, true
			} else {
				m = measure(cfg.Spec, kernel, mhz, cfg.Iterations, cfg.NoiseRel, noiseVals)
				cfg.Cache.put(k, m)
			}
		} else {
			m = measure(cfg.Spec, kernel, mhz, cfg.Iterations, cfg.NoiseRel, noiseVals)
		}
		m.Score = cfg.Objective(m.TimeS, m.EnergyJ)
		atomic.AddInt64(&evalCount, 1)
		evals.Inc()
		if cfg.Events != nil {
			cfg.Events.Emit(events.Event{
				Step: -1, Rank: -1, Type: events.TunerMeasure,
				Subject: kernelName, AppliedMHz: mhz,
				PredTimeS: m.TimeS, PredEnergyJ: m.EnergyJ,
				PredPowerW: powerW(m), PredEDPJs: m.TimeS * m.EnergyJ,
				Value: m.Score, Cached: fromCache,
			})
		}
		if cfg.Metrics != nil {
			labels := []telemetry.Label{
				telemetry.L("kernel", kernelName),
				telemetry.L("mhz", strconv.Itoa(mhz)),
			}
			cfg.Metrics.Gauge("tuner_candidate_time_s",
				"measured kernel time per candidate clock", labels...).Set(m.TimeS)
			cfg.Metrics.Gauge("tuner_candidate_energy_j",
				"measured kernel energy per candidate clock", labels...).Set(m.EnergyJ)
			cfg.Metrics.Gauge("tuner_candidate_score",
				"objective score per candidate clock (lower is better)", labels...).Set(m.Score)
		}
		return m
	}
	eval := func(mhz int) Measurement { return evalWith(mhz, drawNoise()) }

	switch cfg.Strategy {
	case BruteForce:
		// The sweep's candidates are independent measurements on fresh
		// simulated devices, so they go through par.Tasks. Noise sequences
		// are pre-drawn in candidate order and each result lands at its
		// candidate's index, keeping result ordering and rng-seeded values
		// identical to a serial sweep.
		all := make([]Measurement, len(cands))
		seqs := make([][]float64, len(cands))
		for i := range cands {
			seqs[i] = drawNoise()
		}
		par.Tasks(len(cands), func(i int) { all[i] = evalWith(cands[i], seqs[i]) })
		res.All = all
	case RandomSample:
		frac := cfg.SampleFraction
		if frac <= 0 || frac > 1 {
			frac = 0.5
		}
		n := int(float64(len(cands))*frac + 0.5)
		if n < 1 {
			n = 1
		}
		r := rng.New(cfg.Seed + 1)
		perm := r.Perm(len(cands))
		picked := perm[:n]
		sort.Sort(sort.Reverse(sort.IntSlice(picked)))
		for _, i := range picked {
			res.All = append(res.All, eval(cands[i]))
		}
	case HillClimb:
		// Walk down from the maximum clock while the objective improves.
		i := 0
		cur := eval(cands[i])
		res.All = append(res.All, cur)
		for i+1 < len(cands) {
			next := eval(cands[i+1])
			res.All = append(res.All, next)
			if next.Score >= cur.Score {
				break
			}
			cur = next
			i++
		}
	default:
		return nil, fmt.Errorf("tuner: unknown strategy %q", cfg.Strategy)
	}

	res.Evaluations = int(evalCount)
	if len(res.All) == 0 {
		return nil, fmt.Errorf("tuner: no configurations evaluated")
	}
	best := res.All[0]
	for _, m := range res.All[1:] {
		if m.Score < best.Score {
			best = m
		}
	}
	res.Best = best
	if cfg.Events != nil {
		cfg.Events.Emit(events.Event{
			Step: -1, Rank: -1, Type: events.TunerSelect,
			Subject: kernelName, AppliedMHz: best.MHz,
			PredTimeS: best.TimeS, PredEnergyJ: best.EnergyJ,
			PredPowerW: powerW(best), PredEDPJs: best.TimeS * best.EnergyJ,
			Value: best.Score,
		})
	}
	cfg.Metrics.Gauge("tuner_best_mhz",
		"winning application clock per kernel", telemetry.L("kernel", kernelName)).
		Set(float64(best.MHz))
	// Keep All sorted by descending frequency for reporting.
	sort.Slice(res.All, func(a, b int) bool { return res.All[a].MHz > res.All[b].MHz })
	return res, nil
}

// powerW derives the mean power of a measurement (0 when time is zero).
func powerW(m Measurement) float64 {
	if m.TimeS <= 0 {
		return 0
	}
	return m.EnergyJ / m.TimeS
}

// PredictionTable folds per-kernel sweep results into the ledger's
// prediction lookup, so frequency-decision events carry the model's
// expected time/energy/EDP at the clock they applied.
func PredictionTable(results map[string]*Result) events.Predictions {
	preds := make(events.Predictions, len(results))
	for name, r := range results {
		byClock := make(map[int]events.Prediction, len(r.All))
		for _, m := range r.All {
			byClock[m.MHz] = events.Prediction{
				TimeS:   m.TimeS,
				EnergyJ: m.EnergyJ,
				PowerW:  powerW(m),
				EDPJs:   m.TimeS * m.EnergyJ,
			}
		}
		preds[name] = byClock
	}
	return preds
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
