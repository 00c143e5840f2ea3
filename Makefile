# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build lint vet fmt-check test race race-sph race-model race-energy race-faults race-recovery bench bench-telemetry bench-json bench-sph bench-sph-smoke bench-gomaxprocs perfgate perfgate-smoke perfgate-ckpt chaos chaos-smoke events-smoke soak soak-smoke check experiments examples clean

all: build lint test

# check is the CI gate: static vetting plus the full suite under the race
# detector (includes the telemetry concurrency tests), the SPH engine's
# race suite again at GOMAXPROCS 4 (race-sph: the default width of a small
# box never splits its loops) and the energy stack's likewise (race-model:
# whole runs in flight at once), a focused re-run of the energy
# attribution/validation path so a regression there is named in the
# failure output rather than buried in ./..., a short
# SPH perf-harness smoke + pipeline-equivalence gate so the production
# path can't silently drift from the closure-walk reference, a
# seeded chaos smoke proving the fault/degradation layer keeps the
# measurement contract and stays bit-identical per seed, the perf
# regression sentinel (perfgate-smoke) diffing a short bench run against
# the committed BENCH_sph.json baseline, the decision-ledger smoke
# (events-smoke) proving a tuned run exports an auditable ledger, and the
# recovery soak smoke (soak-smoke) proving seeded kill-and-recover runs
# converge bit-identically plus the checkpoint-overhead self-gate.
check: lint race race-sph race-model race-energy race-faults bench-sph-smoke chaos-smoke perfgate-smoke events-smoke soak-smoke

# lint is the static gate: go vet plus a gofmt cleanliness check.
lint: vet fmt-check

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The fault-injection and graceful-degradation stack under the race
# detector: injector streams evaluated inside rank phases while scrapes and
# status reads come from other goroutines, the mediated resilient setter,
# sampler failover, and straggler/crash handling.
race-faults:
	$(GO) test -race ./internal/faults/ ./internal/freqctl/ ./internal/mpisim/ \
		./internal/sampler/ ./internal/core/

# Full chaos sweep: many seeds, larger runs, with rank crashes.
chaos:
	$(GO) run ./cmd/faultbench -seeds 10 -ranks 4 -s 4 -crash
	$(GO) run ./cmd/faultbench -seeds 10

# Fast chaos gate for `check`: a few seeds through the full fault stack
# (sensor transients, stuck node sensor, clamped-clock window, straggler,
# one rank crash under drop-rank), each run twice and byte-compared.
chaos-smoke:
	$(GO) run ./cmd/faultbench -seeds 2 -q
	$(GO) run ./cmd/faultbench -seeds 2 -ranks 3 -s 4 -crash -q

# Full recovery soak: many seeds, >= 10 kill points each, every killed run
# must restart from its on-disk checkpoint and converge bit-identically to
# the uninterrupted reference, plus a budget preemption + resume per seed.
soak:
	$(GO) run ./cmd/faultbench -soak -seeds 5 -kills 10 -ranks 4 -s 8 -q
	$(GO) run ./cmd/perfgate -ckpt-overhead 1.0

# Fast recovery gate for `check`: a short seeded kill-and-recover sweep and
# the self-measured checkpoint-overhead gate (autosave-every 10 vs off).
soak-smoke:
	$(GO) run ./cmd/faultbench -soak -seeds 2 -kills 4 -ranks 2 -s 6 -q
	$(GO) run ./cmd/perfgate -ckpt-overhead 1.0

# The checkpoint/supervisor stack under the race detector: store
# corruption/truncation handling, atomic writer, controller + watchdog +
# supervisor, and the end-to-end crash/budget/stall recovery tests in core.
race-recovery:
	$(GO) test -race ./internal/recovery/ ./internal/atomicio/ ./internal/core/

# Checkpoint-overhead self-gate at the default tolerance.
perfgate-ckpt:
	$(GO) run ./cmd/perfgate -ckpt-overhead 1.0

# The sampler/attribution/three-way-validation stack exercised under the
# race detector: the run's goroutine polls rank channels inside the rank
# phases and node sensors between them while the registry serves scrapes.
race-energy:
	$(GO) test -race -run 'Sampler|Sampling|Attrib|Build|Validation|ThreeWay' \
		./internal/sampler/ ./internal/attrib/ ./internal/core/ ./internal/slurm/ ./internal/report/

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The SPH engine's parallel loops, chunk pools and scatter accumulators
# under the race detector at a width that splits them.
race-sph:
	GOMAXPROCS=4 $(GO) test -race ./internal/sph/ ./internal/neighbors/ ./internal/par/

# The energy stack's run-level concurrency under the race detector at a
# width that splits it: ranks step in-line, so what runs concurrently is
# whole core.Runs handed out by par.Tasks — sharing the experiments' session
# cache and Fig. 4/5 memo, the spec tables and hostOverheads — plus the
# tuner's candidate sweep.
race-model:
	GOMAXPROCS=4 $(GO) test -race ./internal/par/ ./internal/mpisim/ ./internal/core/ \
		./internal/slurm/ ./internal/tuner/ ./internal/experiments/ ./cmd/experiments/

bench:
	$(GO) test -bench . -benchmem ./...

# Telemetry cost: per-primitive ns/op, what an observed run's trace costs
# at export (WriteJSON), in-process read-back (Spans) and re-load
# (traceanalysis.Load) on a recorded 8-rank 300-step run, and the
# end-to-end off/live/trace comparison. Wall clock is noisy on shared
# machines — compare minimums across the -count runs; the allocation
# columns repeat exactly.
bench-telemetry:
	$(GO) test -run '^$$' -bench 'SpanRecord|CounterInc|HistogramObserve' -benchmem ./internal/telemetry/
	$(GO) test -run '^$$' -bench 'TraceWriteJSON|SpansReadBack' -benchtime 20x -count 3 ./internal/telemetry/
	$(GO) test -run '^$$' -bench TraceLoad -benchtime 20x -count 3 ./internal/traceanalysis/
	$(GO) test -run '^$$' -bench TelemetryOverhead -benchtime 300x -count 3 ./internal/core/

# Sampler overhead (off / 10 Hz / 100 Hz) as machine-readable JSON for
# regression tracking; the human-readable twin is
# `go test -bench SamplerOverhead ./internal/core/`.
bench-json:
	$(GO) run ./cmd/energybench -out BENCH_energy.json

# Per-pass SPH pipeline timing (closure-walk reference vs the production
# neighbor list) at the tracked problem sizes, as machine-readable JSON.
# This IS the perfgate baseline refresh: after an intentional perf change,
# run `make bench-sph` (with the 1,2,4,8 sweep so the parallel-efficiency
# fields stay populated) and commit the regenerated BENCH_sph.json
# alongside the change that caused it.
bench-sph:
	$(GO) run ./cmd/sphbench -sizes 20,30 -steps 4 -warmup 1 -gomaxprocs 1,2,4,8 -out BENCH_sph.json

# GOMAXPROCS scaling sweep on the production pipeline: per-pass
# parallel-efficiency fields (t1/(P·tP)) land in gomaxprocs_sweep of the
# output. Writes to a scratch file so it never clobbers the baseline.
bench-gomaxprocs:
	$(GO) run ./cmd/sphbench -sizes 20,30 -steps 4 -warmup 1 -gomaxprocs 1,2,4,8 -out /tmp/BENCH_sph_sweep.json

# Perf regression sentinel at full fidelity: rerun the tracked bench and
# diff it against the committed baseline with the default tolerances.
perfgate:
	$(GO) run ./cmd/sphbench -sizes 20,30 -steps 4 -warmup 1 -out /tmp/BENCH_sph_fresh.json
	$(GO) run ./cmd/perfgate -baseline BENCH_sph.json /tmp/BENCH_sph_fresh.json

# Fast sentinel for `check`: relaxed -smoke tolerances — only gross
# regressions (a pass's share of step time jumping, allocs blowing up,
# skin reuse breaking) fail the gate. 4 measured steps so the ~4-step
# rebuild cadence lands one rebuild inside the measured window.
perfgate-smoke:
	$(GO) run ./cmd/sphbench -sizes 20,30 -steps 4 -warmup 1 -out /tmp/BENCH_sph_smoke.json
	$(GO) run ./cmd/perfgate -smoke -baseline BENCH_sph.json /tmp/BENCH_sph_smoke.json

# Fast correctness/liveness gate for `check`: a tiny sphbench run (exercises
# both pipelines end to end — the closure-walk reference and the production
# neighbor list; the multi-step run gives the skin real refresh steps), the
# production-vs-walk and skin-vs-rebuild equivalence tests plus the skin
# and fold edge cases (drift threshold, overflow/ngmax fallback,
# mid-interval restart, bit-identical opt-out) and the sequence fuzz seeds,
# the zero-allocation regressions on the reusable grid build and the folded
# passes, and a one-shot pass over the SPH micro-benchmarks.
bench-sph-smoke:
	$(GO) run ./cmd/sphbench -sizes 8 -steps 1 -warmup 1 -out /dev/null
	$(GO) run ./cmd/sphbench -sizes 10 -steps 4 -warmup 1 -out /dev/null
	$(GO) test -run 'NeighborListMatchesWalk|NgmaxOverflow|TabulatedKernelPipeline|Skin|Symmetric|PairPass|FuzzPipelineSequence' -count=1 ./internal/sph/
	$(GO) test -run 'ZeroSteadyStateAllocs|QueryZeroAllocs|IntoMatchesBuildGrid|FuzzBuildGridIntoReuse' -count=1 ./internal/neighbors/
	$(GO) test -run xxx -bench 'SPHStep$$' -benchtime 1x ./...

# Decision-observability gate for `check`: a tiny tuned run with the event
# ledger on, exported as JSONL, then audited — declog must exit 0 with at
# least one per-function decision row (it exits 1 on a decision-free
# ledger, failing the target).
events-smoke:
	$(GO) run ./cmd/sphexa -sim turbulence -ranks 2 -s 3 -ppr 10e6 \
		-strategy mandyn -sample-hz 100 -q \
		-events-out /tmp/events_smoke.jsonl -report /tmp/events_smoke.json \
		-trace-out /tmp/events_smoke.trace.json > /dev/null
	$(GO) run ./cmd/declog -events /tmp/events_smoke.jsonl -report /tmp/events_smoke.json

# Regenerate every table/figure at the paper's step counts.
experiments:
	$(GO) run ./cmd/experiments -run all -scale 1 -out results

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/turbulence
	$(GO) run ./examples/evrard
	$(GO) run ./examples/sedov
	$(GO) run ./examples/dvfstrace
	$(GO) run ./examples/measurement
	$(GO) run ./examples/distributed
	$(GO) run ./examples/customcode

clean:
	rm -rf results
