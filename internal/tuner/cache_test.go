package tuner

import (
	"reflect"
	"testing"

	"sphenergy/internal/gpusim"
)

// The cache must be invisible in the results: a cached sweep is bit-identical
// to an uncached one, and a repeat sweep answers from the cache alone.
func TestCacheBitIdenticalToUncached(t *testing.T) {
	cold, err := TuneKernel("k", computeBound(), baseCfg())
	if err != nil {
		t.Fatal(err)
	}

	cached := baseCfg()
	cached.Cache = NewCache()
	warm1, err := TuneKernel("k", computeBound(), cached)
	if err != nil {
		t.Fatal(err)
	}
	warm2, err := TuneKernel("k", computeBound(), cached)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(cold, warm1) {
		t.Error("first cached sweep differs from uncached")
	}
	if !reflect.DeepEqual(cold, warm2) {
		t.Error("repeat cached sweep differs from uncached")
	}
	hits, misses := cached.Cache.Stats()
	if misses != int64(len(cold.All)) {
		t.Errorf("misses = %d, want %d (one per clock on the cold sweep)", misses, len(cold.All))
	}
	if hits != int64(len(cold.All)) {
		t.Errorf("hits = %d, want %d (the repeat sweep should be all hits)", hits, len(cold.All))
	}
	if warm2.Evaluations != cold.Evaluations {
		t.Errorf("cached Evaluations = %d, want %d", warm2.Evaluations, cold.Evaluations)
	}
}

// Changing the kernel shape or the objective must not cross-contaminate
// results through the cache.
func TestCacheKeySeparatesInputs(t *testing.T) {
	c := NewCache()

	cfg := baseCfg()
	cfg.Cache = c
	a, err := TuneKernel("k", computeBound(), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Different kernel shape: all misses, different result.
	b, err := TuneKernel("k", memoryBound(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.All, b.All) {
		t.Error("different kernels returned identical measurements")
	}

	// Objective is not part of the key: a hit-only re-sweep under a new
	// objective must still rescore the cached time/energy pairs.
	cfg3 := cfg
	cfg3.Objective = timeToSolution
	c2, err := TuneKernel("k", computeBound(), cfg3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.All {
		if c2.All[i].TimeS != a.All[i].TimeS || c2.All[i].EnergyJ != a.All[i].EnergyJ {
			t.Fatalf("objective change altered cached time/energy at %d MHz", a.All[i].MHz)
		}
		if c2.All[i].Score != timeToSolution(a.All[i].TimeS, a.All[i].EnergyJ) {
			t.Fatalf("cached measurement not rescored under new objective at %d MHz", a.All[i].MHz)
		}
	}
}

func TestCacheKeyDistinguishesKernels(t *testing.T) {
	spec := gpusim.A100PCIE40GB()
	k1 := (&Cache{}).key(spec, computeBound(), 1200)
	k2 := (&Cache{}).key(spec, memoryBound(), 1200)
	if k1 == k2 {
		t.Error("distinct kernels share a cache key")
	}
}
