package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Child modes: one repetition of a workload, the once-per-invocation
// verification phase, a short run at a pinned GOMAXPROCS for par.*, or a
// set-up and nothing else (more samples of a set-up that is over in
// milliseconds).
const (
	modeRep    = "rep"
	modeVerify = "verify"
	modePar    = "par"
	modeSetup  = "setup"
)

// repConfig is what a child process is asked to do.
type repConfig struct {
	Workload  string `json:"workload"`
	Mode      string `json:"mode"`
	Seed      uint64 `json:"seed"`
	Trace     bool   `json:"trace"`
	Smoke     bool   `json:"smoke"`
	Procs     int    `json:"procs,omitempty"`      // modePar only
	TmpDir    string `json:"tmp_dir"`              // scratch for files a workload writes
	TraceFile string `json:"trace_file,omitempty"` // where a traced rep writes its spans
	// SpawnedNs is the parent's wall clock just before it started the child,
	// so setup_s also covers process start and package initialisation.
	SpawnedNs int64 `json:"spawned_ns"`
}

// repResult is what one child reports back, as one JSON line.
type repResult struct {
	Workload     string  `json:"workload"`
	Mode         string  `json:"mode"`
	StartUnixS   float64 `json:"start_unix_s"`
	LoadavgStart float64 `json:"loadavg_start"`
	// PrefaultS is what growing and touching the heap took before set-up
	// (prefault); no timing includes it.
	PrefaultS float64 `json:"prefault_s"`
	SetupS    float64 `json:"setup_s"` // SetupS, WallS, CPUS, OpMs: as the clock read them
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	// Slowdown is how much slower than nominal the workload's host-speed
	// reference ran over the measured window (probe.go).
	Slowdown     float64   `json:"host_slowdown"`
	OpMs         []float64 `json:"op_ms"`
	LiveHeapMB   float64   `json:"live_heap_mb"`
	ResultErrPct float64   `json:"result_err_pct"`
	OpsAttempted int       `json:"ops_attempted"`
	OpsFailed    int       `json:"ops_failed"`
	Failures     []string  `json:"failures,omitempty"`
	// Exact holds values that must repeat exactly between repetitions of
	// one seed (counts, simulated results, digests).
	Exact map[string]string `json:"exact,omitempty"`
	// Layers holds per-layer values (traced reps, verify and par children).
	Layers map[string]float64 `json:"layers,omitempty"`
}

func (r *repResult) fail(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// sanitize turns every non-finite number into a recorded failure and 0:
// JSON cannot carry NaN or Inf, and a child that died encoding its result
// would lose the very failure messages that explain the value.
func (r *repResult) sanitize() {
	clean := func(name string, v *float64) {
		if !finite(*v) {
			r.fail("%s = %g", name, *v)
			*v = 0
		}
	}
	clean("prefault_s", &r.PrefaultS)
	clean("setup_s", &r.SetupS)
	clean("wall_s", &r.WallS)
	clean("cpu_s", &r.CPUS)
	clean("host_slowdown", &r.Slowdown)
	clean("live_heap_mb", &r.LiveHeapMB)
	clean("result_err_pct", &r.ResultErrPct)
	for i := range r.OpMs {
		clean(fmt.Sprintf("op_ms[%d]", i), &r.OpMs[i])
	}
	for _, name := range sortedKeys(r.Layers) {
		v := r.Layers[name]
		clean(name, &v)
		r.Layers[name] = v
	}
}

// scaled is a timing of this repetition as a quiet reference host would have
// read it: divided by the host's slowdown over the measured window.
func (r *repResult) scaled(v float64) float64 {
	if r.Slowdown > 0 {
		return v / r.Slowdown
	}
	return v
}

func (r *repResult) layer(name string, v float64) {
	if r.Layers == nil {
		r.Layers = map[string]float64{}
	}
	r.Layers[name] = v
}

func (r *repResult) exact(name string, v any) {
	if r.Exact == nil {
		r.Exact = map[string]string{}
	}
	switch x := v.(type) {
	case float64:
		r.Exact[name] = strconv.FormatFloat(x, 'g', 17, 64)
	default:
		r.Exact[name] = fmt.Sprint(v)
	}
}

// workload is one of the four benchmark workloads as the child runner
// drives it. The runner owns timing; a workload owns inputs and checks.
type workload interface {
	// setup builds the inputs from the seed and warms the program up.
	setup() error
	// probed says which host-speed reference scales the timings: true for the
	// gather probe between the ops (the memory-bound engine workloads), false
	// for the ALU sampler beside them (the model workloads).
	probed() bool
	// ops is the number of measured operations of one repetition.
	ops() int
	// runOp performs measured operation i; only this is timed.
	runOp(i int) error
	// checkOp verifies operation i's outputs, untimed.
	checkOp(i int) error
	// finish runs the end-of-window checks and fills ResultErrPct and Exact.
	finish(res *repResult)
	// layers fills the per-layer values of a traced repetition: the ones
	// derived from spans and the direct-call micro-measurements.
	layers(res *repResult)
	// verify is the verification phase (modeVerify).
	verify(res *repResult)
}

func newWorkload(cfg repConfig, rec *recorder) (workload, error) {
	switch cfg.Workload {
	case "turb30":
		return &engine{cfg: cfg, rec: rec}, nil
	case "evrard30":
		return &engine{cfg: cfg, rec: rec, evrard: true}, nil
	case "model_paper":
		return &modelPaper{cfg: cfg, rec: rec}, nil
	case "model_observed":
		return &modelObserved{cfg: cfg, rec: rec}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
}

// prefaultMB is how far a timed child grows its heap before anything is
// timed: a quarter above the workload's peak memory in use.
var prefaultMB = map[string]int{
	"turb30":         640,
	"evrard30":       512,
	"model_paper":    64,
	"model_observed": 384,
}

const smokePrefaultMB = 8

// prefault grows the heap to mb megabytes, writes to every page and hands the
// memory back to the runtime, and returns the seconds that took. The
// benchmark's virtual machine backs a page of guest memory only when it is
// first written, at 20-50 us a page, and takes the backing away again a few
// seconds after the guest frees the page: a step that grows the heap by
// 100 MB took 0.34 s or 1.6 s (once 11 s) depending on which pages the kernel
// handed out. After prefault the workload's heap growth lands on pages that
// are already backed. The children run with GODEBUG=madvdontneed=0
// (spawnProcess), so the pages the runtime releases stay backed too.
func prefault(mb int) float64 {
	t0 := time.Now()
	ballast := make([]byte, mb<<20)
	for i := 0; i < len(ballast); i += os.Getpagesize() {
		ballast[i] = 1
	}
	runtime.GC()
	return time.Since(t0).Seconds()
}

// benchProcs is the thread budget of every workload: one process, at most
// two threads, never more than the machine has.
func benchProcs() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// runChild does what cfg asks in this process. The result always comes
// back, finite throughout, with Failures set when something went wrong.
func runChild(cfg repConfig) (res repResult) {
	defer res.sanitize()
	res = repResult{Workload: cfg.Workload, Mode: cfg.Mode,
		StartUnixS: float64(time.Now().UnixNano()) / 1e9, LoadavgStart: loadavg1()}
	procs := benchProcs()
	if cfg.Mode == modePar {
		procs = cfg.Procs
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))

	var rec *recorder
	if cfg.Trace && cfg.Mode == modeRep {
		rec = newRecorder(1 << 14)
	}
	w, err := newWorkload(cfg, rec)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	if cfg.Mode == modeVerify {
		w.verify(&res)
		return res
	}

	if cfg.Mode == modeSetup {
		if err := w.setup(); err != nil {
			res.fail("setup: %v", err)
			return res
		}
		res.SetupS = float64(time.Now().UnixNano()-cfg.SpawnedNs) / 1e9
		res.Slowdown = burstSlowdown(setupBursts)
		return res
	}

	mb := prefaultMB[cfg.Workload]
	if cfg.Smoke {
		mb = smokePrefaultMB
	}
	res.PrefaultS = prefault(mb)
	if err := w.setup(); err != nil {
		res.fail("setup: %v", err)
		return res
	}
	res.SetupS = float64(time.Now().UnixNano()-cfg.SpawnedNs)/1e9 - res.PrefaultS

	// The host's speed is read while the ops run: by the gather probe
	// between the ops of an engine workload, by the ALU sampler beside the
	// ops of a model workload (probe.go).
	var pr *probe
	var alu *aluSampler
	if w.probed() {
		pr = newProbe(procs)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	// The kernel's high-water mark only says how far prefault grew the heap,
	// so a traced child takes the peak of the runtime's memory in use
	// (obtained from the system and not idle) at the op boundaries.
	peakInUse := uint64(0)
	samplePeak := func() {
		if cfg.Trace {
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			peakInUse = max(peakInUse, m.Sys-m.HeapIdle)
		}
	}
	n := w.ops()
	res.OpMs = make([]float64, 0, n)
	pr.run()
	if !w.probed() {
		alu = startALUSampler()
	}
	for i := 0; i < n; i++ {
		rec.setOp(i)
		c0, t0 := cpuSeconds(), time.Now()
		err := w.runOp(i)
		dt, dc := time.Since(t0).Seconds(), cpuSeconds()-c0
		res.WallS += dt
		res.CPUS += dc
		res.OpMs = append(res.OpMs, dt*1e3)
		res.OpsAttempted++
		if err == nil {
			err = w.checkOp(i)
		}
		if err != nil {
			res.OpsFailed++
			res.fail("op %d: %v", i, err)
		}
		samplePeak()
		pr.run()
	}
	if alu != nil {
		res.Slowdown = alu.slowdown()
	} else {
		res.Slowdown = pr.slowdown()
	}
	runtime.ReadMemStats(&m1)
	w.finish(&res)

	// Live heap with the results still referenced: w stays reachable until
	// after the forced collections. Two of them, because a sync.Pool gives
	// its contents up only on the second.
	runtime.GC()
	runtime.GC()
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	res.LiveHeapMB = float64(m2.HeapAlloc) / 1e6
	runtime.KeepAlive(w)

	if cfg.Mode == modePar {
		res.layer("par.wall_s", res.WallS)
		return res
	}
	if cfg.Trace {
		res.layer("host.alloc_mb_per_op", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(n))
		res.layer("host.gc_cycles", float64(m1.NumGC-m0.NumGC))
		res.layer("host.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
		res.layer("host.cpu_util", res.CPUS/(res.WallS*float64(procs)))
		res.layer("host.slowdown", res.Slowdown)
		res.layer("host.prefault_ms", res.PrefaultS*1e3)
		w.layers(&res)
		samplePeak()
		res.layer("host.peak_rss_mb", float64(peakInUse)/1e6)
		if cfg.TraceFile != "" {
			if err := writeTrace(cfg.TraceFile, cfg.Workload, rec.spans); err != nil {
				res.fail("trace file: %v", err)
			}
		}
	}
	return res
}

// cpuSeconds is user+system CPU time of this process, GC workers included.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// loadavg1 is the 1-minute load average, 0 where /proc is missing.
func loadavg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64)
	return v
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
