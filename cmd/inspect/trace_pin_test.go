package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"slices"
	"sort"
	"testing"

	"sphenergy"
	"sphenergy/internal/core"
	"sphenergy/internal/faults"
	"sphenergy/internal/sampler"
)

// runBundle runs cfg with the observers sphexa -out turns on and writes its
// bundle, returning the bundle's directory.
func runBundle(t *testing.T, cfg sphenergy.Config) string {
	t.Helper()
	cfg.Tracer = sphenergy.NewTracer(cfg.Ranks)
	if cfg.Events == nil {
		cfg.Events = sphenergy.NewEventLedger(0)
	}
	cfg.ClockSink = core.ClockCounters(cfg.Tracer)
	res, err := sphenergy.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := sphenergy.WriteBundle(dir, cfg, res.Report); err != nil {
		t.Fatal(err)
	}
	return dir
}

// sampledRun is the config of `make bundle-smoke`'s SAMPLED_RUN: a tuned,
// sampled 2-rank Turbulence run of 3 steps.
func sampledRun(t *testing.T) sphenergy.Config {
	t.Helper()
	spec := sphenergy.MiniHPC()
	led := sphenergy.NewEventLedger(0)
	table, err := sphenergy.TuneFrequenciesObserved(spec, sphenergy.Turbulence, 10e6, 150, led)
	if err != nil {
		t.Fatal(err)
	}
	return sphenergy.Config{System: spec, Ranks: 2, Sim: sphenergy.Turbulence, ParticlesPerRank: 10e6,
		Steps: 3, Ng: 150, Events: led, NewStrategy: sphenergy.ManDyn(table),
		Sampling: sampler.Config{GPUHz: 100, NodeHz: sampler.DefaultNodeHz}}
}

// stragglerRun is a 4-rank Turbulence run whose rank 2 runs every phase
// three times slower.
func stragglerRun(steps int) sphenergy.Config {
	return sphenergy.Config{System: sphenergy.MiniHPC(), Ranks: 4, Sim: sphenergy.Turbulence,
		ParticlesPerRank: 10e6, Steps: steps, Ng: 150,
		Faults: &faults.Plan{Name: "straggler-rank2", Seed: 11, Rules: []faults.Rule{
			{Kind: faults.Straggler, Target: faults.TargetRank, Ranks: []int{2}, Factor: 3},
		}}}
}

// TestTraceTextPinned holds `inspect trace`'s text report of two bundles to
// recorded SHA-256s: SAMPLED_RUN's, and a 20-step 4-rank run's with a
// straggler rule, where one rank sets the pace at every barrier.
func TestTraceTextPinned(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  func() sphenergy.Config
		want string
	}{
		{"sampled", func() sphenergy.Config { return sampledRun(t) },
			"95bf4022991d5448d32cbc416f76989b59e5d466f388b59ef48b6049da83867c"},
		{"straggler", func() sphenergy.Config { return stragglerRun(20) },
			"efa4b0e9232793fde3fe68b12f63083f5a32c898df71a47a02851390e3d6467b"},
	} {
		t.Run(c.name, func(t *testing.T) {
			out, stderr, code := runInspect(t, "trace", runBundle(t, c.cfg()))
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
			}
			sum := sha256.Sum256([]byte(out))
			if h := hex.EncodeToString(sum[:]); h != c.want {
				t.Errorf("text hashes to %s, recorded %s:\n%s", h, c.want, out)
			}
		})
	}
}

// arrayLengths appends the length of every array in the decoded JSON value
// v, in document order, keys in sorted order.
func arrayLengths(lens []int, v any) []int {
	switch v := v.(type) {
	case []any:
		lens = append(lens, len(v))
		for _, e := range v {
			lens = arrayLengths(lens, e)
		}
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			lens = arrayLengths(lens, v[k])
		}
	}
	return lens
}

// TestTraceJSONBoundedByRanks: `inspect trace -json` of a run grows with
// its ranks, not its steps. The straggler run at 20 steps and at 200 prints
// arrays of the same lengths.
func TestTraceJSONBoundedByRanks(t *testing.T) {
	var lens [2][]int
	for i, steps := range []int{20, 200} {
		out, stderr, code := runInspect(t, "trace", "-json", runBundle(t, stragglerRun(steps)))
		if code != 0 {
			t.Fatalf("%d steps: exit %d: %s", steps, code, stderr)
		}
		var a struct {
			BarrierCount int `json:"barrier_count"`
		}
		var v any
		if err := json.Unmarshal([]byte(out), &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(out), &v); err != nil {
			t.Fatal(err)
		}
		if a.BarrierCount != 10*steps {
			t.Errorf("%d steps: %d barriers, want %d", steps, a.BarrierCount, 10*steps)
		}
		lens[i] = arrayLengths(nil, v)
	}
	if !slices.Equal(lens[0], lens[1]) || len(lens[0]) == 0 {
		t.Errorf("array lengths %v at 20 steps, %v at 200", lens[0], lens[1])
	}
}
