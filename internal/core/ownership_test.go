package core

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/events"
	"sphenergy/internal/faults"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/par"
	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

// ownedPlan is a fault plan that reaches every injection point: GPU and
// node sensors, the clock-control path and rank execution.
var ownedPlan = &faults.Plan{Name: "owned", Seed: 7, Rules: []faults.Rule{
	{Kind: faults.Transient, Target: faults.TargetSensor, Probability: 0.1},
	{Kind: faults.Stuck, Target: faults.TargetNodeSensor, Probability: 0.1, Burst: 3},
	{Kind: faults.ClampedClock, Target: faults.TargetClock, MHz: 1305, StartS: 1},
	{Kind: faults.RejectedSet, Target: faults.TargetClock, Probability: 0.05},
	{Kind: faults.Straggler, Target: faults.TargetRank, Ranks: []int{0}, Probability: 0.1, Factor: 2},
}}

// ownedConfig is the i-th of a set of observed, faulted runs that differ in
// system, simulation, width and seed: sampler, tracer with rank 0's counter
// track, ledger and ownedPlan, each observer fresh.
func ownedConfig(i int) Config {
	systems := []cluster.NodeSpec{cluster.CSCSA100(), cluster.LUMIG(), cluster.MiniHPC()}
	sims := []SimKind{Turbulence, Evrard}
	ranks := 2 + i%3
	tr := telemetry.NewTracer(ranks)
	return Config{
		System:           systems[i%len(systems)],
		Ranks:            ranks,
		Sim:              sims[i%len(sims)],
		ParticlesPerRank: 10e6,
		Steps:            4,
		Seed:             uint64(11 + i),
		Tracer:           tr,
		ClockSink:        ClockCounters(tr),
		Events:           events.NewLedger(0),
		Sampling:         sampler.Config{GPUHz: 100, NodeHz: 10},
		Faults:           ownedPlan,
		NewStrategy: func() freqctl.Strategy {
			return &freqctl.ManDyn{Table: map[string]int{FnIAD: 1005, FnMomentum: 1110}}
		},
	}
}

// runBundle runs cfg and returns the bytes of its report, trace and ledger.
func runBundle(cfg Config) ([3][]byte, error) {
	var out [3]bytes.Buffer
	res, err := Run(cfg)
	if err == nil {
		err = res.Report.WriteJSON(&out[0])
	}
	if err == nil {
		err = cfg.Tracer.WriteJSON(&out[1])
	}
	if err == nil {
		err = cfg.Events.WriteJSONL(&out[2])
	}
	return [3][]byte{out[0].Bytes(), out[1].Bytes(), out[2].Bytes()}, err
}

// TestRunsShareNoObject is the one-owner check: every object a Run builds
// — devices and their traces, meters, profiles, sampler, tracer shards,
// ledger, resilient setters, fault injectors — belongs to the goroutine
// that called Run, and none of them carries a lock. Observed, faulted runs
// handed out by par.Tasks, as cmd/experiments hands out its runs, must then
// write the bytes of the same configs run one after another; under -race
// (make race-model runs it at -cpu 4) an object two runs shared would show
// as a race.
func TestRunsShareNoObject(t *testing.T) {
	const n = 6
	names := []string{"report.json", "trace.json", "events.jsonl"}
	serial := make([][3][]byte, n)
	for i := range serial {
		var err error
		if serial[i], err = runBundle(ownedConfig(i)); err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	concurrent := make([][3][]byte, n)
	errs := make([]error, n)
	par.Tasks(n, func(i int) { concurrent[i], errs[i] = runBundle(ownedConfig(i)) })
	for i := range concurrent {
		if errs[i] != nil {
			t.Fatalf("run %d under par.Tasks: %v", i, errs[i])
		}
		for f, name := range names {
			if !bytes.Equal(concurrent[i][f], serial[i][f]) {
				t.Errorf("run %d: %s under par.Tasks differs from the serial run's (%d vs %d bytes)",
					i, name, len(concurrent[i][f]), len(serial[i][f]))
			}
		}
	}
	if !bytes.Contains(serial[0][0], []byte(`"injected"`)) {
		t.Errorf("the plan injected nothing into run 0: its report has no injection counts")
	}
}

// stopAfter wraps a strategy and closes stop at the at-th Apply of the run
// — inside a step, on the goroutine that drives the run, as a signal
// handler's close lands at any point of it.
type stopAfter struct {
	freqctl.Strategy
	applies *int
	at      int
	stop    chan struct{}
}

func (s stopAfter) Apply(set freqctl.Setter, fn string) error {
	if *s.applies++; *s.applies == s.at {
		close(s.stop)
	}
	return s.Strategy.Apply(set, fn)
}

// requireStop runs cfg uninterrupted, then again with a stop that stop
// wires into it. The second run must return ErrInterrupted after steps
// steps, at the uninterrupted run's boundaries, with a complete report. Its
// ledger ends with step steps-1's row and the run-end, with no budget-stop
// row; every track of its trace is the uninterrupted trace's up to that
// boundary, and its last step span is step steps-1's.
func requireStop(t *testing.T, steps int, stop func(*Config)) {
	t.Helper()
	base := func() Config {
		cfg := observedConfig(3, 6)
		cfg.Faults = ownedPlan
		cfg.Tracer, cfg.Events = telemetry.NewTracer(cfg.Ranks), events.NewLedger(0)
		return cfg
	}
	full := base()
	ref, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	cfg := base()
	stop(&cfg)
	res, err := Run(cfg)
	if err != ErrInterrupted {
		t.Fatalf("err = %v, want %v", err, ErrInterrupted)
	}
	if !reflect.DeepEqual(res.StepBoundariesS, ref.StepBoundariesS[:steps]) {
		t.Fatalf("the stopped run's boundaries %v, want the uninterrupted run's first %d, %v",
			res.StepBoundariesS, steps, ref.StepBoundariesS[:steps])
	}
	if res.Report == nil || res.Report.WallTimeS != res.WallTimeS || len(res.Report.Ranks) != cfg.Ranks {
		t.Fatalf("the stopped run's report is incomplete: %+v", res.Report)
	}

	evs := ledgerEvents(t, cfg.Events)
	if len(evs) < 2 {
		t.Fatalf("the ledger holds %d rows", len(evs))
	}
	if last, end := evs[len(evs)-2], evs[len(evs)-1]; last.Type != events.StepDone || last.Step != steps-1 || end.Type != events.RunEnd {
		t.Errorf("the ledger ends %+v, %+v; want step %d's row and the run-end", last, end, steps-1)
	}
	if c := cfg.Events.Summary().ByType[events.BudgetStop]; c != 0 {
		t.Errorf("%d budget-stop rows, want none", c)
	}

	byTrack := func(tr *telemetry.Tracer) map[int][]telemetry.SpanEvent {
		out := map[int][]telemetry.SpanEvent{}
		for _, ev := range tr.Spans() {
			out[ev.Track] = append(out[ev.Track], ev)
		}
		return out
	}
	got, want := byTrack(cfg.Tracer), byTrack(full.Tracer)
	// A rank's device clock meets the boundary to rounding: the next
	// step's first kernel may start a few ulps before it.
	bound := res.StepBoundariesS[steps-1] * (1 - 1e-12)
	for track, spans := range want {
		n := 0
		for n < len(spans) && spans[n].StartS < bound {
			n++
		}
		if !reflect.DeepEqual(got[track], spans[:n]) {
			t.Errorf("track %d: the stopped trace holds %d spans, want the uninterrupted trace's first %d",
				track, len(got[track]), n)
		}
	}
	var lastStep string
	for _, ev := range got[telemetry.GlobalTrack] {
		if ev.Category == "step" {
			lastStep = ev.Name
		}
	}
	if want := "step " + strconv.Itoa(steps-1); lastStep != want {
		t.Errorf("the stopped trace's last step span is %q, want %q", lastStep, want)
	}
}

// TestStopMidRunEndsAtTheNextBoundary closes Config.Stop inside step 2: the
// run finishes that step and returns at its boundary.
func TestStopMidRunEndsAtTheNextBoundary(t *testing.T) {
	requireStop(t, 3, func(cfg *Config) {
		stop := make(chan struct{})
		cfg.Stop = stop
		applies, perStep := 0, cfg.Ranks*len(TurbulencePipeline())
		inner := cfg.NewStrategy
		cfg.NewStrategy = func() freqctl.Strategy {
			return stopAfter{Strategy: inner(), applies: &applies, at: 2*perStep + perStep/2, stop: stop}
		}
	})
}

// TestStopBeforeHugeRunAllocatesWhatRan closes Config.Stop before a run of
// 2^40 steps starts: it ends at the first boundary, having allocated for
// the step it did, not for the steps it was asked to do (reserving their
// boundaries alone would take 8 TiB).
func TestStopBeforeHugeRunAllocatesWhatRan(t *testing.T) {
	stop := make(chan struct{})
	close(stop)
	cfg := Config{System: cluster.CSCSA100(), Ranks: 2, Sim: Turbulence,
		ParticlesPerRank: 10e6, Steps: 1 << 40, Seed: 42, Stop: stop}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrInterrupted) || res == nil {
		t.Fatalf("Run returned %v, want ErrInterrupted and the result of the step it did", err)
	}
	if n := len(res.StepBoundariesS); n != 1 {
		t.Fatalf("the stopped run did %d step(s), want 1", n)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<20 {
		t.Errorf("a run stopped at its first boundary allocated %.1f MB, want under 64 MB", float64(got)/(1<<20))
	}
}

// TestStopBeforeRunEndsAtTheFirstBoundary closes Config.Stop before Run
// starts, as a signal during ManDyn's tuning sweep does: the run does its
// first step and returns at that boundary.
func TestStopBeforeRunEndsAtTheFirstBoundary(t *testing.T) {
	requireStop(t, 1, func(cfg *Config) {
		stop := make(chan struct{})
		close(stop)
		cfg.Stop = stop
	})
}
