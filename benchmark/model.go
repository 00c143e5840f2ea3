package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sphenergy"
	"sphenergy/internal/attrib"
	"sphenergy/internal/core"
	"sphenergy/internal/events"
	"sphenergy/internal/experiments"
	"sphenergy/internal/gpusim"
	"sphenergy/internal/instr"
	"sphenergy/internal/mpisim"
	"sphenergy/internal/nvml"
	"sphenergy/internal/pmt"
	"sphenergy/internal/report"
	"sphenergy/internal/sampler"
	"sphenergy/internal/slurm"
	"sphenergy/internal/telemetry"
	"sphenergy/internal/traceanalysis"
	"sphenergy/internal/tuner"
)

const (
	paperScale      = 5.0
	smokeScale      = 0.05
	particles450    = 450 * 450 * 450
	tuneNg          = 150
	coreSteps       = 500 // single-rank core.Run micro-measurement
	observedRanks   = 8
	observedSteps   = 300 // 100 Hz x ~500 s simulated stays inside the sampler's 65 536-sample ring
	observedPPR     = 10e6
	smokeRanks      = 2
	smokeRunSteps   = 20
	gpusimCalls     = 200_000
	mpisimSyncs     = 100_000
	mpisimExecs     = 10_000
	samplerTicks    = 200_000
	spanRecords     = 1_000_000
	paperTimeLoss   = 2.95 // the paper's ManDyn time-to-solution loss, %
	paperEnergySave = 8.0  // the paper's ManDyn GPU energy saving, %
	paperStaticEDP  = 2.5  // the paper's static-1005 MHz EDP gain, %
)

// modelPaper regenerates every table and figure of the paper, observers off.
type modelPaper struct {
	cfg repConfig
	rec *recorder

	ids      []string
	scale    float64
	results  []experiments.Renderable // kept, so live_heap_mb counts them
	rendered []string
	fig7     *experiments.Fig7Data
}

func (m *modelPaper) setup() error {
	m.ids = experiments.Names()
	m.scale = paperScale
	if m.cfg.Smoke {
		m.scale = smokeScale
	}
	m.results = make([]experiments.Renderable, len(m.ids))
	m.rendered = make([]string, len(m.ids))
	return nil
}

func (m *modelPaper) probed() bool { return false }

func (m *modelPaper) ops() int { return len(m.ids) }

func (m *modelPaper) runOp(i int) error {
	return m.rec.timed("experiments."+m.ids[i], "experiments", func() error {
		r, err := experiments.Run(m.ids[i], m.scale)
		if err != nil {
			return err
		}
		m.results[i], m.rendered[i] = r, r.Render()
		if d, ok := r.(*experiments.Fig7Data); ok {
			m.fig7 = d
		}
		return nil
	})
}

func (m *modelPaper) checkOp(i int) error {
	if m.rendered[i] == "" {
		return fmt.Errorf("%s rendered nothing", m.ids[i])
	}
	return nil
}

// fig7Numbers returns ManDyn's time and energy change and static-1005's
// EDP change against the baseline, in percent.
func (m *modelPaper) fig7Numbers() (timePct, energyPct, staticEDPPct, mandynEDPPct float64, err error) {
	if m.fig7 == nil {
		return 0, 0, 0, 0, fmt.Errorf("fig7 did not run")
	}
	md, ok1 := m.fig7.Row("mandyn")
	st, ok2 := m.fig7.Row("static-1005")
	if !ok1 || !ok2 {
		return 0, 0, 0, 0, fmt.Errorf("fig7 lacks the mandyn or static-1005 row")
	}
	return 100 * (md.TimeNorm - 1), 100 * (md.EnergyNorm - 1), 100 * (st.EDPNorm - 1), 100 * (md.EDPNorm - 1), nil
}

func (m *modelPaper) finish(res *repResult) {
	h := sha256.New()
	for i, s := range m.rendered {
		fmt.Fprintf(h, "%s\n%s\n", m.ids[i], s)
	}
	res.exact("sim_digest", hex.EncodeToString(h.Sum(nil)))

	tp, ep, sp, mp, err := m.fig7Numbers()
	if err != nil {
		res.fail("%v", err)
		return
	}
	// DESIGN.md section 4's acceptance bands for the headline result.
	if tp < 1 || tp > 5 {
		res.fail("ManDyn time change %+.2f%% outside +1..+5%%", tp)
	}
	if ep > -5 || ep < -12 {
		res.fail("ManDyn energy change %+.2f%% outside -5..-12%%", ep)
	}
	if mp >= 0 || mp >= sp {
		res.fail("ManDyn EDP change %+.2f%% not below baseline and static-1005 (%+.2f%%)", mp, sp)
	}
	res.ResultErrPct = (math.Abs(tp-paperTimeLoss) + math.Abs(-ep-paperEnergySave) + math.Abs(-sp-paperStaticEDP)) / 3
	res.exact("sim.mandyn_time_pct", tp)
	res.exact("sim.mandyn_energy_pct", ep)
	res.exact("sim.static1005_edp_pct", sp)
}

func (m *modelPaper) verify(*repResult) {
	// The pipeline is a fixed protocol: the harness checks instead that
	// sim_digest is identical in every repetition.
}

func (m *modelPaper) layers(res *repResult) {
	for _, id := range m.ids {
		res.layer("experiments."+id+"_ms", meanMs(m.rec.spans, 1, named("experiments."+id)))
	}
	if tp, ep, sp, _, err := m.fig7Numbers(); err == nil {
		res.layer("sim.mandyn_time_pct", tp)
		res.layer("sim.mandyn_energy_pct", ep)
		res.layer("sim.static1005_edp_pct", sp)
		res.layer("sim.paper_err_pp", res.ResultErrPct)
	}
	steps, ranks, ranksSteps := coreSteps, observedRanks, observedSteps
	if m.cfg.Smoke {
		steps, ranks, ranksSteps = smokeRunSteps, smokeRanks, smokeRunSteps
	}

	// Tuner: a cold sweep of the Turbulence pipeline on miniHPC, then the
	// identical sweep again through the same cache.
	sys := sphenergy.MiniHPC()
	pipeline, err := core.Pipeline(core.Turbulence)
	if err != nil {
		res.fail("pipeline: %v", err)
		return
	}
	kernels := make(map[string]gpusim.KernelDesc, len(pipeline))
	for _, fn := range pipeline {
		kernels[fn.Name] = fn.Kernel(particles450, tuneNg, sys.GPUSpec.Vendor)
	}
	cache := tuner.NewCache()
	tcfg := tuner.Config{Spec: sys.GPUSpec, Objective: tuner.EDP, Cache: cache,
		Params: tuner.Params{MinMHz: 1005, MaxMHz: sys.GPUSpec.MaxSMClockMHz}}
	t0 := time.Now()
	table, results, err := tuner.TuneTable(kernels, tcfg)
	if err != nil {
		res.fail("tuner: %v", err)
		return
	}
	res.layer("tuner.tune_table_ms", time.Since(t0).Seconds()*1e3)
	evals := 0
	for _, r := range results {
		evals += r.Evaluations
	}
	res.layer("tuner.configs_evaluated", float64(evals))
	h0, m0 := cache.Stats()
	if _, _, err := tuner.TuneTable(kernels, tcfg); err != nil {
		res.fail("tuner: %v", err)
		return
	}
	h1, m1 := cache.Stats()
	if lookups := (h1 - h0) + (m1 - m0); lookups > 0 {
		res.layer("tuner.cache_hit_ratio", float64(h1-h0)/float64(lookups))
	}

	// core.Run, one rank, per frequency strategy.
	for _, s := range []struct {
		name string
		mk   func() sphenergy.Strategy
	}{
		{"baseline", sphenergy.Baseline()},
		{"static", sphenergy.StaticMHz(1005)},
		{"dvfs", sphenergy.DVFS()},
		{"mandyn", sphenergy.ManDyn(table)},
	} {
		t0 := time.Now()
		_, err := sphenergy.Run(sphenergy.Config{System: sys, Ranks: 1, Sim: sphenergy.Turbulence,
			ParticlesPerRank: particles450, Steps: steps, NewStrategy: s.mk})
		if err != nil {
			res.fail("core.Run %s: %v", s.name, err)
			return
		}
		res.layer("core.run_ms_"+s.name, time.Since(t0).Seconds()*1e3)
	}

	// core.Run, eight ranks: host cost per rank-step and per simulated kernel.
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	run, err := sphenergy.Run(sphenergy.Config{System: sphenergy.CSCSA100(), Ranks: ranks,
		Sim: sphenergy.Turbulence, ParticlesPerRank: observedPPR, Steps: ranksSteps})
	wall := time.Since(t0).Seconds()
	runtime.ReadMemStats(&ms1)
	if err != nil {
		res.fail("core.Run %d ranks: %v", ranks, err)
		return
	}
	launched := int64(0)
	for _, n := range run.System.Nodes {
		for _, d := range n.Devices {
			launched += d.KernelsRun()
		}
	}
	res.layer("core.rank_steps_per_s", float64(ranks*ranksSteps)/wall)
	res.layer("core.host_ns_per_kernel", wall*1e9/float64(launched))
	res.layer("core.alloc_kb_per_step", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e3/float64(ranksSteps))

	// gpusim: tight loops on one device.
	dev := gpusim.NewDevice(sys.GPUSpec, 0)
	k := pipeline[0].Kernel(observedPPR, tuneNg, sys.GPUSpec.Vendor)
	t0 = time.Now()
	for i := 0; i < gpusimCalls; i++ {
		sink += dev.Execute(k)
	}
	res.layer("gpusim.execute_ns", time.Since(t0).Seconds()*1e9/gpusimCalls)
	clocks := [2]int{1005, sys.GPUSpec.MaxSMClockMHz}
	t0 = time.Now()
	for i := 0; i < gpusimCalls; i++ {
		if _, err := dev.SetApplicationClocks(0, clocks[i&1]); err != nil {
			res.fail("gpusim: %v", err)
			return
		}
	}
	res.layer("gpusim.set_clocks_ns", time.Since(t0).Seconds()*1e9/gpusimCalls)
	t0 = time.Now()
	for i := 0; i < gpusimCalls; i++ {
		dev.Idle(1e-3)
	}
	res.layer("gpusim.idle_ns", time.Since(t0).Seconds()*1e9/gpusimCalls)

	// mpisim: an eight-rank world.
	world := mpisim.NewWorld(observedRanks, mpisim.DefaultNetwork(4), 1)
	defer world.Close()
	durs := make([]float64, observedRanks)
	for i := range durs {
		durs[i] = 1e-3 * float64(i+1)
	}
	t0 = time.Now()
	for i := 0; i < mpisimSyncs; i++ {
		world.Synchronize(durs)
	}
	res.layer("mpisim.synchronize_ns", time.Since(t0).Seconds()*1e9/mpisimSyncs)
	t0 = time.Now()
	for i := 0; i < mpisimExecs; i++ {
		world.Execute(func(rank int) float64 { return 1e-3 })
	}
	res.layer("mpisim.execute_us", time.Since(t0).Seconds()*1e6/mpisimExecs)
}

// obsConfig is one observed run of the model_observed workload.
type obsConfig struct {
	sys    sphenergy.NodeSpec
	sim    sphenergy.SimKind
	mandyn bool
	seed   uint64
}

func (c obsConfig) String() string {
	strat := "baseline"
	if c.mandyn {
		strat = "mandyn"
	}
	return fmt.Sprintf("%s/%s/%s", c.sys.Name, c.sim, strat)
}

// obsRun is what one observed run leaves behind for its checks.
type obsRun struct {
	cfg        sphenergy.Config
	job        *slurm.Job
	validation *attrib.Validation
	readBack   *instr.Report
	events     []events.Event
	truncated  bool
	analysis   *traceanalysis.Analysis
}

// modelObserved runs the same core.Run with every observer on, through the
// Slurm front end, and writes and reads back the whole run bundle.
type modelObserved struct {
	cfg repConfig
	rec *recorder

	configs []obsConfig
	dir     string
	cur     obsRun

	ranks, runSteps                                         int
	reportPath, csvPath, tracePath, metricsPath, eventsPath string

	// Totals over the measured runs.
	worstAgg, worstResolvable, pmtGap    float64
	polls, ticks, dropped, spans         float64
	emitted, evDropped, decisions, steps float64
	traceBytes, reportBytes, attribRows  float64
}

func (m *modelObserved) setup() error {
	m.ranks, m.runSteps = observedRanks, observedSteps
	if m.cfg.Smoke {
		m.ranks, m.runSteps = smokeRanks, smokeRunSteps
	}
	for _, sys := range []sphenergy.NodeSpec{sphenergy.CSCSA100(), sphenergy.LUMIG()} {
		for _, sim := range []sphenergy.SimKind{sphenergy.Turbulence, sphenergy.Evrard} {
			for _, mandyn := range []bool{false, true} {
				m.configs = append(m.configs, obsConfig{sys: sys, sim: sim, mandyn: mandyn,
					seed: m.cfg.Seed + uint64(len(m.configs))})
			}
		}
	}
	m.dir = filepath.Join(m.cfg.TmpDir, "model_observed")
	if err := os.MkdirAll(m.dir, 0o755); err != nil {
		return err
	}
	m.reportPath = filepath.Join(m.dir, "report.json")
	m.csvPath = filepath.Join(m.dir, "report.csv")
	m.tracePath = filepath.Join(m.dir, "trace.json")
	m.metricsPath = filepath.Join(m.dir, "metrics.json")
	m.eventsPath = filepath.Join(m.dir, "events.jsonl")
	return nil
}

func (m *modelObserved) probed() bool { return false }

func (m *modelObserved) ops() int { return len(m.configs) }

// runConfig builds the run configuration of c, observers on or off.
func (m *modelObserved) runConfig(c obsConfig, observed bool) (sphenergy.Config, error) {
	cfg := sphenergy.Config{System: c.sys, Ranks: m.ranks, Sim: c.sim,
		ParticlesPerRank: observedPPR, Steps: m.runSteps, Seed: c.seed}
	if observed {
		cfg.Tracer = sphenergy.NewTracer(m.ranks)
		cfg.Metrics = sphenergy.NewMetrics()
		cfg.Events = sphenergy.NewEventLedger(0)
		cfg.Sampling = sampler.Config{GPUHz: 100, NodeHz: 10}
	}
	if c.mandyn {
		table, err := sphenergy.TuneFrequenciesObserved(c.sys, c.sim, observedPPR, tuneNg, cfg.Events)
		if err != nil {
			return cfg, err
		}
		cfg.NewStrategy = sphenergy.ManDyn(table)
	}
	return cfg, nil
}

func submit(cfg sphenergy.Config) (*slurm.Job, error) {
	return slurm.NewManager().Submit(cfg, slurm.SubmitOptions{JobName: "benchmark",
		TRES: slurm.ParseTRES("billing,cpu,energy,gres/gpu")})
}

func (m *modelObserved) runOp(i int) error {
	m.cur = obsRun{}
	r := &m.cur
	rec := m.rec
	var err error
	if err = rec.timed("tuner.tune", "tuner", func() error {
		r.cfg, err = m.runConfig(m.configs[i], true)
		return err
	}); err != nil {
		return err
	}
	if err = rec.timed("core.observed_run", "core", func() error {
		r.job, err = submit(r.cfg)
		return err
	}); err != nil {
		return err
	}
	if err = rec.timed("slurm.threeway", "slurm", func() error {
		r.validation, err = slurm.ThreeWay(r.job, 0)
		return err
	}); err != nil {
		return err
	}
	rep := r.job.Result.Report
	var loaded []traceanalysis.Span
	for _, w := range []struct {
		name, layer string
		fn          func() error
	}{
		{"instr.report_write", "instr", func() error { return rep.WriteFile(m.reportPath) }},
		{"instr.csv_write", "instr", func() error { return rep.WriteCSVFile(m.csvPath) }},
		{"telemetry.trace_write", "telemetry", func() error { return r.cfg.Tracer.WriteFile(m.tracePath) }},
		{"telemetry.metrics_write", "telemetry", func() error { return r.cfg.Metrics.WriteFile(m.metricsPath) }},
		{"events.write", "events", func() error { return r.cfg.Events.WriteFile(m.eventsPath) }},
		{"instr.report_read", "instr", func() error {
			r.readBack, err = instr.ReadReportFile(m.reportPath)
			return err
		}},
		{"events.read", "events", func() error {
			f, err := os.Open(m.eventsPath)
			if err != nil {
				return err
			}
			defer f.Close()
			r.events, r.truncated, err = events.ReadJSONL(f)
			return err
		}},
		{"traceanalysis.load", "traceanalysis", func() error {
			loaded, err = traceanalysis.LoadFile(m.tracePath)
			return err
		}},
		{"traceanalysis.analyze", "traceanalysis", func() error {
			r.analysis = traceanalysis.Analyze(loaded, traceanalysis.Options{})
			return nil
		}},
	} {
		if err := rec.timed(w.name, w.layer, w.fn); err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
	}
	return nil
}

func (m *modelObserved) checkOp(i int) error {
	r := &m.cur
	res := r.job.Result
	if !r.validation.Pass {
		return fmt.Errorf("%v: three-way validation failed", m.configs[i])
	}
	a := res.Attribution
	if a == nil || !a.Pass {
		return fmt.Errorf("%v: attribution failed", m.configs[i])
	}
	dropped := 0.0
	for _, st := range res.Sampler.Stats() {
		m.polls += float64(st.Polls)
		m.ticks += float64(st.Ticks)
		dropped += float64(st.Dropped)
	}
	m.dropped += dropped
	if dropped != 0 {
		return fmt.Errorf("%v: sampler dropped %g samples", m.configs[i], dropped)
	}
	written, err := os.ReadFile(m.reportPath)
	if err != nil {
		return err
	}
	var again bytes.Buffer
	if err := r.readBack.WriteJSON(&again); err != nil {
		return err
	}
	if !bytes.Equal(written, again.Bytes()) {
		return fmt.Errorf("%v: report read back differs from the one written", m.configs[i])
	}
	sum := r.cfg.Events.Summary()
	if r.truncated || uint64(len(r.events)) != sum.Emitted-sum.Dropped {
		return fmt.Errorf("%v: read %d events back, ledger retained %d", m.configs[i], len(r.events), sum.Emitted-sum.Dropped)
	}
	if r.analysis == nil || !(r.analysis.WallS > 0) {
		return fmt.Errorf("%v: trace analysis found no spans", m.configs[i])
	}

	m.worstAgg = math.Max(m.worstAgg, a.AggErrPct)
	m.worstResolvable = math.Max(m.worstResolvable, a.MaxResolvableErrPct)
	if gap, ok := r.validation.Get("pmt-loop-only"); ok {
		m.pmtGap += math.Abs(gap.RelErrPct)
	}
	m.attribRows += float64(len(a.Kernels) + len(a.Functions))
	m.spans += float64(r.cfg.Tracer.Len())
	m.emitted += float64(sum.Emitted)
	m.evDropped += float64(sum.Dropped)
	m.decisions += float64(sum.ByType[events.FreqDecision])
	m.steps += float64(m.runSteps)
	m.reportBytes += float64(len(written))
	if fi, err := os.Stat(m.tracePath); err == nil {
		m.traceBytes += float64(fi.Size())
	}
	return nil
}

func (m *modelObserved) finish(res *repResult) {
	res.ResultErrPct = m.worstAgg
	res.exact("attrib.agg_err_pct", m.worstAgg)
	res.exact("sampler.ticks", m.ticks)
	res.exact("events.emitted", m.emitted)
	res.exact("telemetry.spans", m.spans)
}

// verify runs the first configuration twice: a run is a pure function of
// its configuration, so the two report files must be byte-identical.
func (m *modelObserved) verify(res *repResult) {
	if err := m.setup(); err != nil {
		res.fail("setup: %v", err)
		return
	}
	var reports [2][]byte
	for i := range reports {
		cfg, err := m.runConfig(m.configs[0], true)
		if err != nil {
			res.fail("%v", err)
			return
		}
		job, err := submit(cfg)
		if err != nil {
			res.fail("%v", err)
			return
		}
		var buf bytes.Buffer
		if err := job.Result.Report.WriteJSON(&buf); err != nil {
			res.fail("%v", err)
			return
		}
		reports[i] = buf.Bytes()
	}
	if !bytes.Equal(reports[0], reports[1]) {
		res.fail("%v run twice gave different report JSON", m.configs[0])
	}
}

func (m *modelObserved) layers(res *repResult) {
	n := len(m.configs)
	spans := m.rec.spans
	for _, s := range []struct{ layer, span string }{
		{"core.observed_run_ms", "core.observed_run"},
		{"slurm.threeway_ms", "slurm.threeway"},
		{"instr.report_write_ms", "instr.report_write"},
		{"instr.csv_write_ms", "instr.csv_write"},
		{"instr.report_read_ms", "instr.report_read"},
		{"telemetry.trace_write_ms", "telemetry.trace_write"},
		{"telemetry.metrics_write_ms", "telemetry.metrics_write"},
		{"events.write_ms", "events.write"},
		{"events.read_ms", "events.read"},
		{"traceanalysis.load_ms", "traceanalysis.load"},
		{"traceanalysis.analyze_ms", "traceanalysis.analyze"},
	} {
		res.layer(s.layer, meanMs(spans, n, named(s.span)))
	}
	fn := float64(n)
	res.layer("sampler.polls", m.polls)
	res.layer("sampler.ticks", m.ticks)
	res.layer("sampler.dropped", m.dropped)
	res.layer("telemetry.spans", m.spans)
	res.layer("telemetry.trace_mb", m.traceBytes/1e6/fn)
	res.layer("events.emitted", m.emitted)
	res.layer("events.dropped", m.evDropped)
	res.layer("freqctl.switches_per_step", m.decisions/m.steps)
	res.layer("attrib.rows", m.attribRows/fn)
	res.layer("attrib.agg_err_pct", m.worstAgg)
	res.layer("attrib.max_resolvable_err_pct", m.worstResolvable)
	res.layer("slurm.pmt_gap_pct", m.pmtGap/fn)
	res.layer("instr.report_kb", m.reportBytes/1e3/fn)

	// The same configurations with every observer off.
	plainMs := 0.0
	for _, c := range m.configs {
		cfg, err := m.runConfig(c, false)
		if err != nil {
			res.fail("%v", err)
			return
		}
		t0 := time.Now()
		if _, err := submit(cfg); err != nil {
			res.fail("%v", err)
			return
		}
		plainMs += time.Since(t0).Seconds() * 1e3
	}
	res.layer("core.plain_run_ms", plainMs/fn)
	res.layer("core.observe_overhead_x", meanMs(spans, n, named("core.observed_run"))/(plainMs/fn))

	// Attribution join and the text renderers, on the last run.
	last := m.cur.job.Result
	t0 := time.Now()
	a := attrib.Build(m.cur.cfg.Tracer.Spans(), last.Sampler.RankSeries(), attrib.Options{RateHz: 100})
	res.layer("attrib.build_ms", time.Since(t0).Seconds()*1e3)
	t0 = time.Now()
	text := report.RenderAttribution(a, 12) + report.RenderValidation(m.cur.validation) +
		report.NewDeviceBreakdown(last.Report, m.cur.cfg.System, "benchmark").Render() +
		report.NewFunctionBreakdown(last.Report, "benchmark").Render()
	res.layer("report.render_ms", time.Since(t0).Seconds()*1e3)
	sink += float64(len(text))

	// Sampler: one NVML channel polled each time its device idles a period.
	dev := gpusim.NewDevice(sphenergy.CSCSA100().GPUSpec, 0)
	lib, err := nvml.New([]*gpusim.Device{dev})
	if err == nil {
		err = lib.Init()
	}
	if err != nil {
		res.fail("nvml: %v", err)
		return
	}
	handle, err := lib.DeviceGetHandleByIndex(0)
	if err != nil {
		res.fail("nvml: %v", err)
		return
	}
	ch := sampler.New(sampler.Config{GPUHz: 100}).AddRank(0, pmt.NewNVML(handle))
	t0 = time.Now()
	for i := 0; i < samplerTicks; i++ {
		dev.Idle(0.01)
		ch.Poll()
	}
	res.layer("sampler.ns_per_tick", time.Since(t0).Seconds()*1e9/samplerTicks)

	// Telemetry: span recording on the by-name path the runner uses.
	tr := telemetry.NewTracer(1)
	t0 = time.Now()
	for i := 0; i < spanRecords; i++ {
		tr.RecordSpan(0, "kernel", "benchmark", float64(i), 0.5)
	}
	res.layer("telemetry.span_record_ns", time.Since(t0).Seconds()*1e9/spanRecords)
}
