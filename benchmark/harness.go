package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

const (
	minReps      = 3  // a median needs three
	smokeReps    = 1  // -smoke
	tailBeyond   = 10 // samples a reported tail percentile must have beyond it
	childTimeout = 150 * time.Second
	buildDir     = ".bench_build" // everything the benchmark writes lives here
)

// nominalRepS is the measured window of one repetition on the reference
// machine, in seconds. It turns -seconds into a repetition count that depends
// on nothing measured, so two result files of one commit always have the
// same n.
var nominalRepS = map[string]float64{
	"turb30":         6.5,
	"evrard30":       7,
	"model_paper":    5.5,
	"model_observed": 6,
}

// setupsPerRep is how many set-up-only children follow each repetition of a
// workload. A model workload's set-up is 4 ms of process start, and the median
// of three such readings moves by a fifth from run to run; a dozen hold it. An
// engine set-up takes a second and more and gets no extra ones.
var setupsPerRep = map[string]int{
	"model_paper":    3,
	"model_observed": 3,
}

// options are the command line of one invocation.
type options struct {
	workload string // a workload name or "all"
	seed     uint64
	seconds  int // measured seconds per workload the repetition count is sized for
	reps     int // exact repetition count; 0 derives it from seconds
	trace    bool
	smoke    bool
	out      string // result file; "" writes none
}

// harness schedules child processes and turns what they report into a
// result. spawn is the seam tests use to run children in-process.
type harness struct {
	spec  *benchSpec
	opt   options
	spawn func(repConfig) (repResult, error)
	tmp   string
	log   io.Writer
}

// spawnProcess runs cfg in a fresh child process of this binary, so
// process-lifetime caches, the allocator and the collector start cold.
func spawnProcess(cfg repConfig) (repResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return repResult{}, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	arg, err := json.Marshal(cfg)
	if err != nil {
		return repResult{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", string(arg))
	// Memory the child's runtime gives back stays backed by the host
	// (MADV_FREE, not MADV_DONTNEED): see prefault.
	godebug := "madvdontneed=0"
	if v := os.Getenv("GODEBUG"); v != "" {
		godebug = v + "," + godebug
	}
	cmd.Env = append(os.Environ(), "GODEBUG="+godebug)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return repResult{}, fmt.Errorf("%s %s child: %w", cfg.Workload, cfg.Mode, err)
	}
	var res repResult
	if err := json.Unmarshal(lastLine(out), &res); err != nil {
		return repResult{}, fmt.Errorf("%s %s child: %w", cfg.Workload, cfg.Mode, err)
	}
	return res, nil
}

func lastLine(out []byte) []byte {
	out = bytes.TrimRight(out, "\n")
	if i := bytes.LastIndexByte(out, '\n'); i >= 0 {
		return out[i+1:]
	}
	return out
}

// collected is everything the children of one workload reported.
type collected struct {
	name    string
	verify  repResult
	reps    []repResult // untraced repetitions
	setups  []repResult // set-up-only children: more samples of setup_s
	traced  *repResult
	par     map[int]repResult // by GOMAXPROCS
	errs    []string          // children that could not be run at all
	started []repStamp
}

// run executes the invocation and returns its result.
func (h *harness) run() (*benchResult, error) {
	names := h.spec.workloadNames()
	if h.opt.workload != "all" {
		if !slices.Contains(names, h.opt.workload) {
			return nil, fmt.Errorf("unknown workload %q (have %s, all)", h.opt.workload, strings.Join(names, ", "))
		}
		names = []string{h.opt.workload}
	}
	res := &benchResult{Schema: resultSchema, Seed: h.opt.seed, Seconds: h.opt.seconds,
		Trace: h.opt.trace, Smoke: h.opt.smoke, Env: newEnvStamp()}

	cols := make([]*collected, len(names))
	for i, name := range names {
		cols[i] = &collected{name: name, par: map[int]repResult{}}
		// Verification: once per invocation, before any timing.
		fmt.Fprintf(h.log, "%s: verifying\n", name)
		cols[i].verify = h.child(cols[i], repConfig{Mode: modeVerify})
	}
	if h.opt.trace {
		for _, c := range cols {
			h.tracedRun(c)
		}
	} else {
		// Round-robin: repetition 1 of every workload, then repetition 2,
		// so slow machine drift hits all workloads alike.
		most := 0
		for _, c := range cols {
			most = max(most, h.repsFor(c.name))
		}
		for rep := 1; rep <= most; rep++ {
			for _, c := range cols {
				if rep > h.repsFor(c.name) || len(c.errs) > 0 {
					continue
				}
				r := h.child(c, repConfig{Mode: modeRep})
				c.reps = append(c.reps, r)
				fmt.Fprintf(h.log, "%s: rep %d  prefault %.3f s  setup %.3f s  wall %.3f s  cpu %.3f s  as read, host slowdown %.3f\n",
					c.name, rep, r.PrefaultS, r.SetupS, r.WallS, r.CPUS, r.Slowdown)
				for i := 0; i < setupsPerRep[c.name]; i++ {
					c.setups = append(c.setups, h.child(c, repConfig{Mode: modeSetup}))
				}
			}
		}
	}
	for _, c := range cols {
		res.Workloads = append(res.Workloads, h.aggregate(c))
	}
	res.Env.LoadavgEnd = loadavg1()
	res.Env.EndedAt = time.Now().UTC().Format(time.RFC3339)
	return res, nil
}

// repsFor is the repetition count of a workload: -reps when given, else as
// many nominal windows as fill -seconds, at least minReps.
func (h *harness) repsFor(workload string) int {
	switch {
	case h.opt.reps > 0:
		return h.opt.reps
	case h.opt.smoke:
		return smokeReps
	}
	return max(minReps, int(math.Ceil(float64(h.opt.seconds)/nominalRepS[workload])))
}

// tracedRun is the separate traced run of one workload: one untraced
// repetition as the overhead base, the traced repetition, and on turb30
// the two pinned-GOMAXPROCS runs behind par.*.
func (h *harness) tracedRun(c *collected) {
	c.reps = append(c.reps, h.child(c, repConfig{Mode: modeRep}))
	traceFile := filepath.Join(h.outDir(), "benchmark-trace-"+c.name+".json")
	t := h.child(c, repConfig{Mode: modeRep, Trace: true, TraceFile: traceFile})
	c.traced = &t
	fmt.Fprintf(h.log, "%s: traced rep wall %.3f s (untraced %.3f s), spans in %s\n",
		c.name, t.scaled(t.WallS), c.reps[0].scaled(c.reps[0].WallS), traceFile)
	if c.name == "turb30" && runtime.NumCPU() >= 2 {
		for _, p := range []int{1, 2} {
			c.par[p] = h.child(c, repConfig{Mode: modePar, Procs: p})
		}
	}
}

// child runs one child for workload c, filling in what every child gets.
func (h *harness) child(c *collected, cfg repConfig) repResult {
	cfg.Workload, cfg.Seed, cfg.Smoke, cfg.TmpDir = c.name, h.opt.seed, h.opt.smoke, h.tmp
	cfg.SpawnedNs = time.Now().UnixNano()
	r, err := h.spawn(cfg)
	if err != nil {
		c.errs = append(c.errs, err.Error())
		return repResult{Workload: c.name, Mode: cfg.Mode}
	}
	c.started = append(c.started, repStamp{Mode: cfg.Mode, StartUnixS: r.StartUnixS, PrefaultS: r.PrefaultS, Slowdown: r.Slowdown,
		Loadavg: r.LoadavgStart, Flagged: r.LoadavgStart > float64(runtime.NumCPU())})
	return r
}

func (h *harness) outDir() string {
	if h.opt.out != "" {
		return filepath.Dir(h.opt.out)
	}
	return h.tmp
}

// aggregate folds a workload's children into its result row.
func (h *harness) aggregate(c *collected) workloadResult {
	w := workloadResult{Name: c.name, Reps: c.started, Failures: c.errs}
	all := append([]repResult{c.verify}, c.reps...)
	all = append(all, c.setups...)
	if c.traced != nil {
		all = append(all, *c.traced)
	}
	for _, p := range sortedKeys(c.par) {
		all = append(all, c.par[p])
	}
	for _, r := range all {
		w.OpsAttempted += r.OpsAttempted
		w.OpsFailed += r.OpsFailed
		for _, f := range r.Failures {
			w.Failures = append(w.Failures, r.Mode+": "+f)
		}
	}
	// Values that are exact for one seed must agree between repetitions.
	measured := c.reps
	if c.traced != nil {
		measured = append(measured[:len(measured):len(measured)], *c.traced)
	}
	for _, r := range measured {
		if w.Exact == nil {
			w.Exact = r.Exact
			continue
		}
		for k, v := range r.Exact {
			if w.Exact[k] != v {
				w.Failures = append(w.Failures, fmt.Sprintf("%s differs between repetitions: %s vs %s", k, w.Exact[k], v))
			}
		}
	}

	if c.traced != nil {
		w.Layers = h.layers(c, &w)
	} else if len(c.reps) > 0 {
		w.Metrics = h.endToEnd(c.reps, c.setups)
		w.OpTimes = opTimesOf(c.name, c.reps)
	}
	// Everything checked outside the measured ops — the verification phase,
	// the end-of-window invariants, repeatability — counts as one more
	// operation, failed when any such check failed (each failed op has
	// exactly one entry in Failures), so it shows in ops_failed.
	w.OpsAttempted++
	if len(w.Failures) > w.OpsFailed {
		w.OpsFailed++
	}
	return w
}

// endToEnd computes the end-to-end metrics over the untraced repetitions:
// each is the median of the per-repetition values, carried with its samples,
// extremes and quartiles; setup_s also takes the set-up-only children. The
// timings are scaled by the child's host slowdown; what the clock read is in
// the child stamps.
func (h *harness) endToEnd(reps, setups []repResult) map[string]metricResult {
	per := map[string]func(repResult) float64{
		"setup_s":        func(r repResult) float64 { return r.scaled(r.SetupS) },
		"wall_s":         func(r repResult) float64 { return r.scaled(r.WallS) },
		"cpu_s":          func(r repResult) float64 { return r.scaled(r.CPUS) },
		"live_heap_mb":   func(r repResult) float64 { return r.LiveHeapMB },
		"result_err_pct": func(r repResult) float64 { return r.ResultErrPct },
	}
	out := map[string]metricResult{}
	for _, spec := range h.spec.EndToEnd {
		get, ok := per[spec.Name]
		if !ok {
			continue // a name without a definition here fails the names test
		}
		from := reps
		if spec.Name == "setup_s" {
			from = append(reps[:len(reps):len(reps)], setups...)
		}
		samples := make([]float64, len(from))
		for i, r := range from {
			samples[i] = get(r)
		}
		m := metricResult{Unit: spec.Unit, summary: summarize(samples), Samples: samples}
		m.Value = m.Median
		out[spec.Name] = m
	}
	return out
}

// opTimesOf is the median of the pooled step times, the cost of a refresh
// step, and the highest percentile that still has tailBeyond samples beyond
// it, the cost of a rebuild step. Only the engine's ops are alike enough for
// percentiles to mean something.
func opTimesOf(workload string, reps []repResult) *opTimes {
	if strings.HasPrefix(workload, "model_") {
		return nil
	}
	var pool []float64
	for _, r := range reps {
		pool = append(pool, r.OpMs...)
	}
	p, ok := tailPercentile(len(pool), tailBeyond)
	if !ok {
		return nil
	}
	return &opTimes{P50Ms: median(pool), TailMs: percentile(pool, p), TailPercentile: p, N: len(pool)}
}

// layers merges the per-layer values of the verify, traced and par
// children, adds the ones only the harness can compute, and reports every
// per-layer metric of BENCHMARK.json: 0 where this workload does not
// exercise the layer.
func (h *harness) layers(c *collected, w *workloadResult) map[string]float64 {
	got := map[string]float64{}
	for _, src := range []map[string]float64{c.verify.Layers, c.traced.Layers} {
		for k, v := range src {
			got[k] = v
		}
	}
	if base := c.reps[0].scaled(c.reps[0].WallS); base > 0 {
		got["trace_overhead_pct"] = 100 * (c.traced.scaled(c.traced.WallS)/base - 1)
	}
	if t := opTimesOf(c.name, []repResult{c.reps[0], *c.traced}); t != nil {
		got["sph.op_ms_p50"], got["sph.op_ms_tail"], got["sph.op_tail_pct"] = t.P50Ms, t.TailMs, t.TailPercentile
	}
	if t1, t2 := c.par[1].WallS, c.par[2].WallS; t1 > 0 && t2 > 0 {
		got["par.speedup_p2"] = t1 / t2
		got["par.efficiency_p2"] = t1 / t2 / 2
	}
	delete(got, "par.wall_s")

	out := make(map[string]float64, len(h.spec.PerLayer))
	for _, m := range h.spec.PerLayer {
		out[m.Name] = got[m.Name]
		delete(got, m.Name)
	}
	for _, k := range sortedKeys(got) {
		w.Failures = append(w.Failures, fmt.Sprintf("per-layer value %s is not in BENCHMARK.json", k))
	}
	return out
}

func newEnvStamp() envStamp {
	e := envStamp{GitRev: "unknown", GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: benchProcs(), GOGC: os.Getenv("GOGC"), LoadavgStart: loadavg1(),
		StartedAt: time.Now().UTC().Format(time.RFC3339)}
	if e.GOGC == "" {
		e.GOGC = "default"
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.GitRev = strings.TrimSpace(string(out))
	}
	return e
}

// print writes every metric by name with its unit.
func (h *harness) print(w io.Writer, res *benchResult) {
	e := res.Env
	fmt.Fprintf(w, "\nbenchmark  seed %d  git %s  %s  cpus %d  GOMAXPROCS %d  GOGC %s  loadavg %.2f -> %.2f\n",
		res.Seed, e.GitRev, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.GOGC, e.LoadavgStart, e.LoadavgEnd)
	for _, wl := range res.Workloads {
		fmt.Fprintf(w, "\n%s  ops_attempted %d  ops_failed %d\n", wl.Name, wl.OpsAttempted, wl.OpsFailed)
		for _, f := range wl.Failures {
			fmt.Fprintf(w, "  FAILED %s\n", f)
		}
		for _, r := range wl.Reps {
			if r.Flagged {
				fmt.Fprintf(w, "  note: a %s child started at load average %.2f, above the CPU count\n", r.Mode, r.Loadavg)
			}
		}
		for _, spec := range h.spec.EndToEnd {
			m, ok := wl.Metrics[spec.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "  %-18s %12.6g %-3s  min %.6g  q1 %.6g  q3 %.6g  max %.6g  n %d\n",
				spec.Name, m.Value, m.Unit, m.Min, m.Q1, m.Q3, m.Max, m.N)
		}
		if t := wl.OpTimes; t != nil {
			fmt.Fprintf(w, "  %-18s %12.6g ms   p50 of %d pooled ops\n", "op_ms_p50", t.P50Ms, t.N)
			fmt.Fprintf(w, "  %-18s %12.6g ms   p%.0f of %d pooled ops\n", "op_ms_tail", t.TailMs, t.TailPercentile, t.N)
		}
		if wl.Layers != nil {
			for _, spec := range h.spec.PerLayer {
				if v := wl.Layers[spec.Name]; v != 0 {
					fmt.Fprintf(w, "  %-34s %14.6g %s\n", spec.Name, v, spec.Unit)
				}
			}
		}
		for _, k := range sortedKeys(wl.Exact) {
			fmt.Fprintf(w, "  exact %-28s %s\n", k, wl.Exact[k])
		}
	}
}

// driverLine builds the contract's last line for a one-workload invocation.
func (h *harness) driverLine(wl *workloadResult) driverLine {
	line := driverLine{Correct: wl.correct(), Attempted: wl.OpsAttempted, Failed: wl.OpsFailed,
		Metrics: map[string]driverValue{}}
	if wl.Layers != nil {
		for _, spec := range h.spec.PerLayer {
			line.Metrics[spec.Name] = driverValue{Value: wl.Layers[spec.Name], Unit: spec.Unit}
		}
		return line
	}
	for _, spec := range h.spec.EndToEnd {
		line.Metrics[spec.Name] = driverValue{Value: wl.Metrics[spec.Name].Value, Unit: spec.Unit}
	}
	return line
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
