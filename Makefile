# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build lint vet fmt-check test race race-sph race-model fuzz-smoke bench bench-smoke bench-telemetry bench-observe bench-model bench-sph chaos chaos-smoke events-smoke soak soak-smoke check experiments examples clean

all: build lint test

# check is the CI gate. What runs, in order:
#   lint         go vet and a gofmt cleanliness check.
#   race         every package under the race detector at the machine's
#                default width.
#   race-sph     the SPH engine's packages again under -race at -cpu 4, a
#   race-model   width that splits the parallel loops a 2-CPU box never
#                splits, and the energy stack's likewise (whole runs in
#                flight at once). The width is set with -cpu, a test
#                flag and so part of go test's cache key; behind a
#                GOMAXPROCS=4 prefix, which is not, go test replays
#                `race`'s results as "(cached)" and nothing runs.
#   fuzz-smoke   the engine's three sequence fuzzers for a fixed number of
#                executions each beyond their seed corpora.
#   chaos-smoke  a seeded fault sweep: the degradation layer keeps the
#                measurement contract and replays bit-identically.
#   events-smoke a tuned run whose exported decision ledger must audit.
#   soak-smoke   a seeded kill-and-recover sweep that must converge
#                bit-identically, and the cost-per-autosave bound.
#   bench-smoke  the repository's one benchmark at smoke size: production
#                pipeline vs the closure-walk oracle, a bit-identical
#                checkpoint-resume twin, the Fig. 7 bands and the
#                attribution pass; exits 1 on any "correct": false.
# The other bench-* targets time things and gate nothing: bench-observe the
# observers, bench-model the plain run's rank-phase loop, bench-sph and
# bench-telemetry their packages' primitives, bench the whole benchmark.
check: lint race race-sph race-model fuzz-smoke chaos-smoke events-smoke soak-smoke bench-smoke

# lint is the static gate: go vet plus a gofmt cleanliness check.
lint: vet fmt-check

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

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

# Fast recovery gate for `check`: a short seeded kill-and-recover sweep and
# the cost-per-autosave bound, which is a wall-clock figure and therefore
# skips itself in the -race passes above; here it runs uninstrumented.
soak-smoke:
	$(GO) run ./cmd/faultbench -soak -seeds 2 -kills 4 -ranks 2 -s 6 -q
	$(GO) test -run TestAutosaveCostPerSnapshot -count=1 ./internal/core/

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The SPH engine's parallel loops, chunk pools, per-worker count accumulators
# (neighbor counts and row lengths scattered to both ends of a candidate
# pair) and scatter accumulators, and the gravity tree's group hand-out and
# per-worker lists, under the race detector at a width that splits them.
race-sph:
	$(GO) test -race -cpu 4 ./internal/sph/ ./internal/neighbors/ ./internal/par/ ./internal/gravity/

# The fuzzers that guard the list builder and the buffers it reuses, each for
# a fixed execution count: the seed corpora alone run in `go test`, and a
# fixed count takes the same time on any machine. go test fuzzes one target
# of one package per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPipelineSequence$$' -fuzztime 200x ./internal/sph/
	$(GO) test -run '^$$' -fuzz '^FuzzBuildGridIntoReuse$$' -fuzztime 200x ./internal/neighbors/
	$(GO) test -run '^$$' -fuzz '^FuzzScatterRun$$' -fuzztime 200x ./internal/par/

# The energy stack's run-level concurrency under the race detector at a
# width that splits it: ranks step in-line, so what runs concurrently is
# whole core.Runs handed out by par.Tasks — sharing the experiments' session
# cache and Fig. 4/5 memo, the spec tables and hostOverheads — plus the
# tuner's candidate sweep and the trace export, whose tracks are encoded
# side by side.
race-model:
	$(GO) test -race -cpu 4 ./internal/par/ ./internal/mpisim/ ./internal/core/ \
		./internal/slurm/ ./internal/tuner/ ./internal/experiments/ ./cmd/experiments/ \
		./internal/telemetry/

# The repository's benchmark (benchmark/README.md has the protocol): all
# four workloads at full size, then judged against the newest full-size
# result committed under bench_results/ with the bounds of BENCHMARK.json.
# Readings from different sessions differ by more than the timing bounds
# on a shared machine — to judge a change, run parent and change
# alternately in one session and -compare those.
bench:
	$(GO) run ./benchmark -workload all
	$(GO) run ./benchmark -compare \
		"$$(git ls-files 'bench_results/pr*_change.json' | sort -V | tail -n 1)" \
		.bench_build/benchmark-result.json

# The same benchmark at tiny sizes, one repetition (~2 s): every
# correctness check it makes before timing anything, none of the timing.
bench-smoke:
	$(GO) run ./benchmark -workload all -smoke

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

# What observing a run costs, leg by leg, on a recorded 8-rank 300-step
# ManDyn run: the decision ledger's JSONL round trip (MB/s, allocs/op), the
# whole observed run (sampler, tracer, ledger, metrics, attribution joined
# in place) and the attribution join through both its feeds. The B/op and
# allocs/op columns repeat exactly; TestObservedRunAllocBudget holds the
# run's allocation volume in plain `go test ./...`.
bench-observe:
	$(GO) test -run '^$$' -bench 'LedgerRoundTrip|ObservedRun|AttribBuild' -benchmem ./internal/events ./internal/core ./internal/attrib

# What one simulated launch costs the host with every observer off: the
# 48-rank, 100-step CSCS-A100 Turbulence run the paper's figures repeat, as
# ns/rank-phase (one rank through one pipeline function: two sensor reads, a
# launch, an idle window, one profile record) with the run's allocations,
# which are set-up only. One package and no test besides, so
# `-cpuprofile cpu.pprof -o core.test` can be appended as is, e.g.
# `go test -run '^$' -bench PlainRun -benchtime 100x -cpuprofile cpu.pprof
# -o core.test ./internal/core/ && go tool pprof -top core.test cpu.pprof`.
bench-model:
	$(GO) test -run '^$$' -bench PlainRun -benchtime 50x -count 3 ./internal/core/

# FindNeighbors alone, by kind of step, on a jittered 30³ lattice: a
# rebuild (candidate gather + row pass) and a refresh (row pass), each with
# what it does per particle — distance tests and contiguous runs of the
# gather, candidates streamed. Those counts repeat exactly; the times do not
# on a shared machine — compare minimums across the -count runs.
bench-sph:
	$(GO) test -run '^$$' -bench FindNeighbors -benchtime 10x -count 3 ./internal/sph/

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
	$(GO) run ./examples/customcode

clean:
	rm -rf results
