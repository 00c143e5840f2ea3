# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build lint vet fmt-check test race race-sph race-model fuzz-smoke bench bench-smoke bench-telemetry bench-observe bench-model bench-sph sweeps bundle-smoke check unlinked unlinked-max experiments clean

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
#   fuzz-smoke   the engine's three sequence fuzzers, the bundle codecs'
#                four (the trace loader, the ledger reader, and jsontext's
#                number reader and number writer, each against its
#                reference), the ledger's packed records (what a ring
#                that pins a preamble and rotates decodes to, against
#                what was emitted), the tracer's packed records (what
#                Spans, ReadRecords and the export read back, against
#                what was recorded) and the device-pricing fuzzer (gpusim's clock
#                sets, caps, launches and idle windows against the
#                unmemoized power and timing model) for a fixed number of
#                executions each beyond their seed corpora.
#   sweeps       without -race: the seeded chaos sweep, the Examples'
#                Output at widths 1, 2 and 4, and the scorecard against
#                EXPERIMENTS.md's copy at widths 1, 2 and 4.
#   bundle-smoke a tuned run's bundle read by all three inspect verbs, whole;
#                its trace and its report cut mid-line refused and its
#                ledger cut mid-line audited up to the cut; a budget-stopped
#                run's bundle; one sampled config's bundle, byte for byte
#                the same at widths 1 and 4 and on a repeat; a faulted
#                AMD run's bundle, its fault and clamp summaries read back,
#                the same at widths 1 and 4; that run again with a rank
#                crashed under drop-rank, and with a rank's clock sets all
#                rejected until its breaker latches, each the same at
#                widths 1 and 4.
#   bench-smoke  the repository's one benchmark at smoke size: production
#                pipeline vs the closure-walk oracle, a bit-identical
#                checkpoint-resume twin, the Fig. 7 bands and the
#                attribution pass; exits 1 on any "correct": false.
#   unlinked-max `make unlinked`'s function count, no more than
#                UNLINKED_MAX.
# The other bench-* targets time things and gate nothing: bench-observe the
# observers, bench-model the plain run's rank-phase loop, bench-sph and
# bench-telemetry their packages' primitives, bench the whole benchmark.
check: lint race race-sph race-model fuzz-smoke sweeps bundle-smoke bench-smoke unlinked-max

# lint is the static gate: go vet plus a gofmt cleanliness check.
lint: vet fmt-check

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The uninstrumented gate for `check`. The chaos sweep replays seeded fault
# plans (sensor transients, a stuck node sensor, a clamped-clock window, a
# straggler, a rank crash under drop-rank) with every observer on and
# requires bit-identical replays and the attribution contract. The Examples
# run three times at each width, so an
# Output that depends on map order or GOMAXPROCS fails; go test runs an
# Example once whatever -count and -cpu say, so each run is its own go test
# and the width its GOMAXPROCS (-count=1: that variable is not in the cache
# key). The scale-1 scorecard is held to the copy EXPERIMENTS.md carries the
# same way, once at each width.
sweeps:
	$(GO) test -count=1 -run 'TestChaosRunDeterministic' ./internal/core/
	for n in 1 2 4 1 2 4 1 2 4; do GOMAXPROCS=$$n $(GO) test -count=1 -run '^Example' . || exit 1; done
	for n in 1 2 4; do GOMAXPROCS=$$n $(GO) test -count=1 -run '^TestScorecardMatchesExperimentsMD$$' ./internal/experiments/ || exit 1; done

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The SPH engine's parallel loops, chunk pools, per-chunk count accumulators
# (neighbor counts and row lengths scattered to both ends of a candidate
# pair) and scatter accumulators, the grid's per-chunk histograms, and the
# gravity tree's group hand-out and per-worker lists, under the race
# detector at a width that splits them.
race-sph:
	$(GO) test -race -cpu 4 ./internal/sph/ ./internal/neighbors/ ./internal/par/ ./internal/gravity/

# The fuzzers that guard the list builder and the buffers it reuses, then
# those that hold the bundle's codecs to encoding/json and strconv, then the
# one that holds the simulated device's pricing to its unmemoized formulas,
# each for a fixed execution count: the seed corpora alone run in `go test`, and
# a fixed count takes the same time on any machine. go test fuzzes one
# target of one package per invocation.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzPipelineSequence$$' -fuzztime 200x ./internal/sph/
	$(GO) test -run '^$$' -fuzz '^FuzzBuildGridIntoReuse$$' -fuzztime 200x ./internal/neighbors/
	$(GO) test -run '^$$' -fuzz '^FuzzScatterRun$$' -fuzztime 200x ./internal/par/
	$(GO) test -run '^$$' -fuzz '^FuzzLoad$$' -fuzztime 200x ./internal/traceanalysis/
	$(GO) test -run '^$$' -fuzz '^FuzzReadJSONL$$' -fuzztime 200x ./internal/events/
	$(GO) test -run '^$$' -fuzz '^FuzzLedgerRecord$$' -fuzztime 200x ./internal/events/
	$(GO) test -run '^$$' -fuzz '^FuzzTracerRecord$$' -fuzztime 200x ./internal/telemetry/
	$(GO) test -run '^$$' -fuzz '^FuzzFloat$$' -fuzztime 200x ./internal/jsontext/
	$(GO) test -run '^$$' -fuzz '^FuzzAppendFloat$$' -fuzztime 200x ./internal/jsontext/
	$(GO) test -run '^$$' -fuzz '^FuzzDevicePricing$$' -fuzztime 200x ./internal/gpusim/

# The energy stack's run-level concurrency under the race detector at a
# width that splits it: ranks step in-line, so what runs concurrently is
# whole core.Runs handed out by par.Tasks — sharing the experiments' Fig.
# 4/5 memo and the spec tables (each run builds its own pipeline, host
# overheads included); and the run bundle's round trip: the trace export's
# two workers encoding pieces of the shards while the caller writes the finished ones
# in order; atomicio's background sync of the file written so far, one at a
# time while the writer goes on; the goroutine that reads the second half
# of a trace file while the caller reads the first; and the trace loader's
# second half scanned on its own goroutine and joined or dropped. Every
# object one run
# builds belongs to the goroutine that calls core.Run and has no lock;
# TestRunsShareNoObject in internal/core is the one-owner check: observed,
# faulted runs under par.Tasks write the bytes of the same runs done
# serially, and an object two runs shared shows here as a race.
race-model:
	$(GO) test -race -cpu 4 ./internal/par/ ./internal/mpisim/ ./internal/core/ \
		./internal/slurm/ ./internal/tuner/ ./internal/experiments/ ./cmd/experiments/ \
		./internal/telemetry/ ./internal/traceanalysis/ ./internal/attrib/ ./internal/atomicio/

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

# Telemetry's per-primitive cost: a span recorded by name (RecordSpan) and
# through an interned identity (CompleteRef) — ns/op and allocs/op, the nil
# tracer included.
bench-telemetry:
	$(GO) test -run '^$$' -bench 'SpanRecord' -benchmem ./internal/telemetry/

# What observing a run costs, leg by leg: one ledger emit into a full ring
# that rotates (0 allocs/op, and B/event, the storage the ring holds per
# event it keeps: 30 for a decision row, 160 while it kept Events), and one
# span recorded back to back with the one before it into a fresh tracer
# (B/event, what it holds: 28, 40 while a shard kept structs); then,
# on a recorded 8-rank 300-step ManDyn run, the decision ledger's JSONL
# round trip (MB/s, allocs/op), the whole observed run with every observer
# on, the attribution join alone —
# the online join replayed step by step as the run makes it (ms/join,
# ns/record; its ns/op and B/op include the replay) and Build over a span
# slice and the run's whole series — and a sampler channel's poll per tick
# emitted (ns/tick, 6 or 7 ticks a poll as in a run, B/op 0 while the ring
# is released); the ledger's read leg on its own at one CPU;
# then the trace's export and re-load on one CPU and on two, so that what
# the second CPU buys and what the pipeline costs without one come from one
# command, each in memory (WriteJSON into io.Discard, Load from a byte
# slice) and through a file (WriteFile into the test's temp directory,
# LoadFile of that file), the difference being the file's legs; and the
# critical-path analysis of the loaded spans (serial; the second CPU only
# runs the collector); last, on one CPU, the number
# conversions every trace event crosses, jsontext's AppendFloat and Float
# over 17-digit microsecond timestamps beside strconv, in ns/value. The
# B/op and allocs/op columns repeat exactly; TestObservedRunAllocBudget
# holds the run's allocation volume in plain `go test ./...`. The whole
# observed run, the join and the tick come again at one CPU, three times
# each, the rulers a change to the join or the sampler is read with: since
# the join reads the tracer's complete records by identity, AttribBuild
# read 5.1–6.8 ms and ObservedRun 16–33 ms, against 8.6–10.9 ms and 28–36
# ms while it rebuilt a SpanEvent per record (two alternated rounds each,
# 2 CPUs); joined while the run runs, it reads 5.0–5.7 ms/join (73–83
# ns/record), beside 5.4–6.0 ms for the post-run join it replaced, and a
# tick 46–48 ns (one round each, 2 CPUs).
bench-observe:
	$(GO) test -run '^$$' -bench 'Emit|SpanRecordInterned|LedgerRoundTrip|ObservedRun|AttribBuild|Tick' -benchmem ./internal/events ./internal/telemetry ./internal/core ./internal/attrib ./internal/sampler
	$(GO) test -run '^$$' -bench 'ObservedRun|AttribBuild|Tick' -count 3 -cpu 1 -benchmem ./internal/core ./internal/attrib ./internal/sampler
	$(GO) test -run '^$$' -bench LedgerRead -benchtime 20x -count 3 -cpu 1 -benchmem ./internal/events/
	$(GO) test -run '^$$' -bench 'TraceWrite(JSON|File)' -benchtime 20x -count 3 -cpu 1,2 -benchmem ./internal/telemetry/
	$(GO) test -run '^$$' -bench 'TraceLoad|Analyze' -benchtime 20x -count 3 -cpu 1,2 -benchmem ./internal/traceanalysis/
	$(GO) test -run '^$$' -bench '^Benchmark(AppendFloat|Float)$$' -count 3 -cpu 1 ./internal/jsontext/

# What one simulated launch costs the host with every observer off: the
# 48-rank, 100-step CSCS-A100 Turbulence run the paper's figures repeat, as
# ns/rank-phase (one rank through one pipeline function: two sensor reads, a
# launch, an idle window, one profile record) with the run's allocations,
# which are set-up only. The machine's load moves it by a fifth: compare
# alternated runs, and read the second line, five runs at one CPU, to tell
# a change of a launch's cost: 114–162 since a launch reads core's
# descriptor in place, 147–192 while it copied the descriptor and its
# timing profile at every call (two alternated rounds each, 2 CPUs). One
# package and no test besides, so `-cpuprofile cpu.pprof -o core.test` can
# be appended as is, e.g. `go test -run '^$' -bench PlainRun -benchtime
# 100x -cpuprofile cpu.pprof -o core.test ./internal/core/ && go tool pprof
# -top core.test cpu.pprof`. Then the launch alone, gpusim's Device.Launch
# over the Turbulence pipeline's kernels in turn, as ns/launch: locked at
# the maximum clock, under the DVFS governor, and locked under a 250 W cap
# that derates three of the ten kernels.
bench-model:
	$(GO) test -run '^$$' -bench PlainRun -benchtime 50x -count 3 ./internal/core/
	$(GO) test -run '^$$' -bench PlainRun -benchtime 50x -count 5 -cpu 1 ./internal/core/
	$(GO) test -run '^$$' -bench Execute -count 3 -cpu 1 ./internal/gpusim/

# The engine's layers one at a time; counts repeat exactly, times do not on
# a shared machine — compare minimums across the -count runs.
#   FindNeighbors  by kind of step, on a jittered 30³ lattice: a rebuild
#                  (candidate gather + row pass) and a refresh (row pass),
#                  each with what it does per particle — distance tests and
#                  contiguous runs of the gather, candidates stored,
#                  streamed, shells, survivors, records, repeated streams.
#                  The half-stencil gather moved rebuild tests/particle
#                  741.9 → 379.0; stored/particle stayed 136.7.
#   PairPasses     XMass, IADVelocityDivCurl and MomentumEnergy each alone
#                  over one turb30 step's pair list: ns/record, the step's
#                  records, and the bytes a record streams through the
#                  pass's sweeps.
#   Gather         the candidate gather alone over Morton-ordered points at
#                  the engine's proportions, radii spread ±10 %:
#                  tests/particle, cand/particle and ns/test.
#   Turbulence     the turb30 initial conditions (lattice, then the
#                  solenoidal velocity field, filled in parallel):
#                  ns/particle.
bench-sph:
	$(GO) test -run '^$$' -bench 'FindNeighbors|PairPasses' -benchtime 10x -count 3 ./internal/sph/
	$(GO) test -run '^$$' -bench Gather -benchtime 10x -count 3 ./internal/neighbors/
	$(GO) test -run '^$$' -bench Turbulence -benchtime 10x -count 3 ./internal/initcond/

# Run-bundle gate for `check`: a tiny tuned, sampled run writes its bundle,
# which must hold exactly its three files, and every inspect verb must read it (decisions exits 1 on a ledger without
# decisions, failing the target, and must join the decisions to the tuner
# sweep, the one record of the predictions, for its aggregate). A tuned
# 1 100-step run wraps its ledger's ring: the sweep and the run header are
# the ledger's preamble, so decisions must still name the run and the
# aggregate. Then the trace, the ledger and the report are cut
# mid-line by hand (sphexa writes each file whole, through a temporary file
# and a rename): trace must refuse the cut trace, exit 1 with nothing on
# stdout and an error naming the file; the ledger leg is as it was, and
# decisions audits the valid prefix and says "truncated ledger" (cut/ holds
# no report, so that decisions reads the ledger alone); energy and decisions
# must refuse the cut report, in a directory of its own beside a whole
# ledger, the same way trace refuses the cut trace.
# Then a budget stop: a tuned 10-step run given a wall-time budget of half
# its wall time must exit 3 with the three files, and its ledger must show
# the budget-stop row. Last, the bundle is a function of the config: the
# first run's config, run again at GOMAXPROCS 1 and 4 and once more at the
# default width, must write the same bytes into every file. And a faulted
# run: a tuned, sampled LUMI-G run under a plan with sensor, node-sensor,
# clock and rank rules, whose report must carry the fault and clock-control
# summaries and whose ledger the clamped sets, byte for byte the same at
# GOMAXPROCS 1 and 4. Then that plan with rank 1 crashed at step 1 under
# drop-rank: the run goes on without it, its ledger shows the one rank-fail
# row, and its bundle is byte for byte the same at GOMAXPROCS 1 and 4.
# Last, that plan with every clock set of rank 1 rejected: the rank's sets
# exhaust their retries and latch its breaker, so the ledger shows a
# breaker trip and short-circuited sets, the report one broken rank, and
# the bundle is byte for byte the same at GOMAXPROCS 1 and 4.
BUNDLE_SMOKE ?= /tmp/sphexa_bundle_smoke
SAMPLED_RUN = -sim turbulence -ranks 2 -s 3 -ppr 10e6 -strategy mandyn -sample-hz 100 -q
BUDGET_RUN = -sim turbulence -ranks 2 -s 10 -ppr 10e6 -strategy mandyn -q
FAULT_RULES = {"kind":"transient","target":"sensor","probability":0.1},\
	{"kind":"stuck","target":"node-sensor","probability":0.1,"burst":3},\
	{"kind":"clamped-clock","target":"clock","mhz":1333,"start_s":1},\
	{"kind":"rejected-set","target":"clock","probability":0.05},\
	{"kind":"straggler","target":"rank","ranks":[0],"probability":0.1,"factor":2}
FAULT_PLAN = {"name":"smoke","seed":7,"rules":[$(FAULT_RULES)]}
CRASH_PLAN = {"name":"smoke","seed":7,"rules":[$(FAULT_RULES),\
	{"kind":"rank-crash","target":"rank","ranks":[1],"step":1}]}
BREAKER_PLAN = {"name":"smoke","seed":7,"rules":[\
	{"kind":"rejected-set","target":"clock","ranks":[1]},$(FAULT_RULES)]}
FAULTED_FLAGS = -system lumi-g -sim turbulence -ranks 2 -s 3 -ppr 10e6 -strategy mandyn -sample-hz 100 -q
FAULTED_RUN = $(FAULTED_FLAGS) -degradation redistribute -fault-plan '$(FAULT_PLAN)'
CRASHED_RUN = $(FAULTED_FLAGS) -degradation drop-rank -fault-plan '$(CRASH_PLAN)'
BREAKER_RUN = $(FAULTED_FLAGS) -fault-plan '$(BREAKER_PLAN)'

BUNDLE_FILES = events.jsonl report.json trace.json
bundle-smoke:
	rm -rf $(BUNDLE_SMOKE) && mkdir -p $(BUNDLE_SMOKE)/cut $(BUNDLE_SMOKE)/cutreport
	$(GO) build -o $(BUNDLE_SMOKE)/ ./cmd/sphexa ./cmd/inspect
	$(BUNDLE_SMOKE)/sphexa $(SAMPLED_RUN) -out $(BUNDLE_SMOKE)/run > /dev/null
	test "$$(cd $(BUNDLE_SMOKE)/run && LC_ALL=C ls | tr '\n' ' ')" = '$(BUNDLE_FILES) '
	$(BUNDLE_SMOKE)/inspect energy $(BUNDLE_SMOKE)/run > /dev/null
	$(BUNDLE_SMOKE)/inspect decisions $(BUNDLE_SMOKE)/run > $(BUNDLE_SMOKE)/run.decisions.txt
	grep -q 'aggregate: this run left' $(BUNDLE_SMOKE)/run.decisions.txt
	$(BUNDLE_SMOKE)/inspect trace $(BUNDLE_SMOKE)/run
	$(BUNDLE_SMOKE)/sphexa -ranks 8 -s 1100 -ppr 10e6 -strategy mandyn -q \
		-out $(BUNDLE_SMOKE)/wrapped > /dev/null
	$(BUNDLE_SMOKE)/inspect decisions $(BUNDLE_SMOKE)/wrapped > $(BUNDLE_SMOKE)/wrapped.txt
	grep -q 'strategy mandyn, 1100 steps' $(BUNDLE_SMOKE)/wrapped.txt
	grep -q 'aggregate: this run left' $(BUNDLE_SMOKE)/wrapped.txt
	head -c $$(( $$(wc -c < $(BUNDLE_SMOKE)/run/trace.json) / 2 )) \
		$(BUNDLE_SMOKE)/run/trace.json > $(BUNDLE_SMOKE)/cut/trace.json
	head -c $$(( $$(wc -c < $(BUNDLE_SMOKE)/run/events.jsonl) - 10 )) \
		$(BUNDLE_SMOKE)/run/events.jsonl > $(BUNDLE_SMOKE)/cut/events.jsonl
	$(BUNDLE_SMOKE)/inspect trace $(BUNDLE_SMOKE)/cut > $(BUNDLE_SMOKE)/cut/trace.txt \
		2> $(BUNDLE_SMOKE)/cut/trace.err; \
	test $$? -eq 1
	test ! -s $(BUNDLE_SMOKE)/cut/trace.txt
	grep -qF '$(BUNDLE_SMOKE)/cut/trace.json:' $(BUNDLE_SMOKE)/cut/trace.err
	$(BUNDLE_SMOKE)/inspect decisions $(BUNDLE_SMOKE)/cut > $(BUNDLE_SMOKE)/cut/decisions.txt
	grep -q 'truncated ledger' $(BUNDLE_SMOKE)/cut/decisions.txt
	cp $(BUNDLE_SMOKE)/run/events.jsonl $(BUNDLE_SMOKE)/cutreport/
	head -c $$(( $$(wc -c < $(BUNDLE_SMOKE)/run/report.json) / 2 )) \
		$(BUNDLE_SMOKE)/run/report.json > $(BUNDLE_SMOKE)/cutreport/report.json
	for v in energy decisions; do \
		$(BUNDLE_SMOKE)/inspect $$v $(BUNDLE_SMOKE)/cutreport > $(BUNDLE_SMOKE)/cutreport/$$v.txt \
			2> $(BUNDLE_SMOKE)/cutreport/$$v.err; \
		test $$? -eq 1 || exit 1; \
		test ! -s $(BUNDLE_SMOKE)/cutreport/$$v.txt || exit 1; \
		grep -qF '$(BUNDLE_SMOKE)/cutreport/report.json:' $(BUNDLE_SMOKE)/cutreport/$$v.err || exit 1; \
	done
	$(BUNDLE_SMOKE)/sphexa $(BUDGET_RUN) -out $(BUNDLE_SMOKE)/whole > /dev/null
	half=$$(sed -n 's/.*"wall_time_s": \([^,]*\).*/\1/p' $(BUNDLE_SMOKE)/whole/report.json | awk '{ print $$1 / 2; exit }'); \
	$(BUNDLE_SMOKE)/sphexa $(BUDGET_RUN) -out $(BUNDLE_SMOKE)/stopped \
		-walltime-budget $$half > $(BUNDLE_SMOKE)/stopped.txt; \
	test $$? -eq 3
	grep -q 'stopped early (budget-walltime) after [1-9] of 10 step(s)' $(BUNDLE_SMOKE)/stopped.txt
	test "$$(cd $(BUNDLE_SMOKE)/stopped && LC_ALL=C ls | tr '\n' ' ')" = '$(BUNDLE_FILES) '
	$(BUNDLE_SMOKE)/inspect decisions $(BUNDLE_SMOKE)/stopped > $(BUNDLE_SMOKE)/stopped.decisions.txt
	grep -q 'anomalies: 1 budget-stop' $(BUNDLE_SMOKE)/stopped.decisions.txt
	GOMAXPROCS=1 $(BUNDLE_SMOKE)/sphexa $(SAMPLED_RUN) -out $(BUNDLE_SMOKE)/width1 > /dev/null
	GOMAXPROCS=4 $(BUNDLE_SMOKE)/sphexa $(SAMPLED_RUN) -out $(BUNDLE_SMOKE)/width4 > /dev/null
	$(BUNDLE_SMOKE)/sphexa $(SAMPLED_RUN) -out $(BUNDLE_SMOKE)/again > /dev/null
	for d in width1 width4 again; do for f in $(BUNDLE_FILES); do \
		cmp $(BUNDLE_SMOKE)/run/$$f $(BUNDLE_SMOKE)/$$d/$$f || exit 1; done; done
	GOMAXPROCS=1 $(BUNDLE_SMOKE)/sphexa $(FAULTED_RUN) -out $(BUNDLE_SMOKE)/faulted1 > /dev/null
	GOMAXPROCS=4 $(BUNDLE_SMOKE)/sphexa $(FAULTED_RUN) -out $(BUNDLE_SMOKE)/faulted4 > /dev/null
	test "$$(cd $(BUNDLE_SMOKE)/faulted1 && LC_ALL=C ls | tr '\n' ' ')" = '$(BUNDLE_FILES) '
	$(BUNDLE_SMOKE)/inspect energy $(BUNDLE_SMOKE)/faulted1 > $(BUNDLE_SMOKE)/faulted.energy.txt
	grep -q 'Fault injection: plan' $(BUNDLE_SMOKE)/faulted.energy.txt
	grep -q 'clock control:' $(BUNDLE_SMOKE)/faulted.energy.txt
	$(BUNDLE_SMOKE)/inspect decisions $(BUNDLE_SMOKE)/faulted1 > $(BUNDLE_SMOKE)/faulted.decisions.txt
	grep -q 'anomalies:.*freq-clamp' $(BUNDLE_SMOKE)/faulted.decisions.txt
	for f in $(BUNDLE_FILES); do \
		cmp $(BUNDLE_SMOKE)/faulted1/$$f $(BUNDLE_SMOKE)/faulted4/$$f || exit 1; done
	GOMAXPROCS=1 $(BUNDLE_SMOKE)/sphexa $(CRASHED_RUN) -out $(BUNDLE_SMOKE)/crashed1 > /dev/null
	GOMAXPROCS=4 $(BUNDLE_SMOKE)/sphexa $(CRASHED_RUN) -out $(BUNDLE_SMOKE)/crashed4 > /dev/null
	test "$$(grep -c '"type":"rank-fail"' $(BUNDLE_SMOKE)/crashed1/events.jsonl)" = 1
	for f in $(BUNDLE_FILES); do \
		cmp $(BUNDLE_SMOKE)/crashed1/$$f $(BUNDLE_SMOKE)/crashed4/$$f || exit 1; done
	GOMAXPROCS=1 $(BUNDLE_SMOKE)/sphexa $(BREAKER_RUN) -out $(BUNDLE_SMOKE)/breaker1 > /dev/null
	GOMAXPROCS=4 $(BUNDLE_SMOKE)/sphexa $(BREAKER_RUN) -out $(BUNDLE_SMOKE)/breaker4 > /dev/null
	grep -q '"type":"freq-breaker-trip"' $(BUNDLE_SMOKE)/breaker1/events.jsonl
	grep -q '"type":"freq-short-circuit"' $(BUNDLE_SMOKE)/breaker1/events.jsonl
	grep -q '"broken_ranks": 1' $(BUNDLE_SMOKE)/breaker1/report.json
	for f in $(BUNDLE_FILES); do \
		cmp $(BUNDLE_SMOKE)/breaker1/$$f $(BUNDLE_SMOKE)/breaker4/$$f || exit 1; done

# What no program links: every declared function of a non-test file that
# appears in no program's symbol table. Each cmd/ and the benchmark is
# built with inlining off, so a function that runs keeps its own symbol;
# symbols of main packages are renamed to their directory and type arguments
# stripped, so a generic method counts as linked when any instantiation is.
# Prints `symbol file:line lines` per function, then the totals; `check`
# holds the count to UNLINKED_MAX through unlinked-max. Assumes gofmt'd
# source: a body ends at the first `}` in column 0.
unlinked:
	@t=$$(mktemp -d) && trap 'rm -rf $$t' EXIT && \
	for p in cmd/* benchmark; do \
		$(GO) build -gcflags=all=-l -o $$t/bin ./$$p || exit 1; \
		$(GO) tool nm $$t/bin | awk -v d=sphenergy/$$p '{ s = $$0; \
			sub(/^ *([0-9a-f]+ +)?[A-Za-z] +/, "", s); sub(/^main\./, d ".", s); \
			while (gsub(/\[[^][]*\]/, "", s)) {} print s }' >> $$t/linked; \
	done && \
	for f in $$(git ls-files '*.go' ':!:*_test.go'); do \
		awk -v d=$$(dirname $$f) -v f=$$f ' \
			/^package / { p = (d == ".") ? "sphenergy" : "sphenergy/" d } \
			/^func / { s = $$0; sub(/^func /, "", s); r = ""; \
				if (s ~ /^\(/) { r = substr(s, 2, index(s, ")") - 2); s = substr(s, index(s, ")") + 2); \
					n = split(r, w, " "); r = w[n]; while (gsub(/\[[^][]*\]/, "", r)) {} \
					r = (r ~ /^\*/) ? "(" r ")." : r "." } \
				match(s, /^[A-Za-z0-9_]+/); name = p "." r substr(s, 1, RLENGTH); start = NR; \
				if ($$0 ~ /}$$/) { print name, f ":" NR, 1; next } \
				infn = 1; next } \
			infn && /^}/ { print name, f ":" start, NR - start + 1; infn = 0 }' $$f; \
	done > $$t/declared && \
	awk 'NR == FNR { l[$$1] = 1; next } !($$1 in l) { print; n++; lines += $$3 } \
		END { printf "%d functions / %d lines\n", n, lines }' $$t/linked $$t/declared

# The most functions `make unlinked` may report. A change that leaves a
# function no program links deletes it, or raises this and says why; one
# that deletes such a function lowers it.
UNLINKED_MAX = 7

unlinked-max:
	@out=$$($(MAKE) -s --no-print-directory unlinked) || exit 1; \
	n=$$(echo "$$out" | tail -n 1 | cut -d' ' -f1); \
	echo "make unlinked: $$(echo "$$out" | tail -n 1) (UNLINKED_MAX $(UNLINKED_MAX))"; \
	if [ "$$n" -gt $(UNLINKED_MAX) ]; then echo "$$out"; exit 1; fi

# Regenerate every table/figure at the paper's step counts.
experiments:
	$(GO) run ./cmd/experiments -run all -scale 1 -out results

clean:
	rm -rf results
