package tuner

import (
	"math"
	"sync"

	"sphenergy/internal/gpusim"
)

// Cache memoizes device measurements across tuning sessions. The figure
// drivers re-tune the same pipeline repeatedly — Fig. 2's sweep feeds the
// ManDyn tables Figs. 6–8 replay — so a session-scoped cache collapses those
// identical sweeps into one set of device measurements.
//
// The key covers everything measure() depends on: the device spec (by
// name — specs are the named presets of gpusim), the full kernel
// descriptor (name, problem size, per-item work), the locked clock, the
// iteration count, and the exact pre-drawn noise factors (which fold in
// Seed and NoiseRel). A hit therefore returns bit-identical time/energy to
// the measurement it replaced, and results with caching on are
// indistinguishable from caching off. Safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	m      map[cacheKey]Measurement
	hits   int64
	misses int64
}

type cacheKey struct {
	spec       string
	kernel     gpusim.KernelDesc
	mhz        int
	iterations int
	noiseRel   float64
	noiseSig   uint64 // FNV-1a over the pre-drawn noise bits (0 when noiseless)
}

// NewCache returns an empty measurement cache.
func NewCache() *Cache {
	return &Cache{m: make(map[cacheKey]Measurement)}
}

// noiseSignature folds the exact bit patterns of the pre-drawn noise factors
// into one value, so two measurements share a key only when they would
// consume identical noise.
func noiseSignature(vals []float64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range vals {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

func (c *Cache) key(spec gpusim.Spec, kernel gpusim.KernelDesc, mhz, iterations int, noiseRel float64, noiseVals []float64) cacheKey {
	return cacheKey{
		spec:       spec.Name,
		kernel:     kernel,
		mhz:        mhz,
		iterations: iterations,
		noiseRel:   noiseRel,
		noiseSig:   noiseSignature(noiseVals),
	}
}

func (c *Cache) get(k cacheKey) (Measurement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.m[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return m, ok
}

func (c *Cache) put(k cacheKey, m Measurement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[k] = m
}

// Stats returns the cumulative hit/miss counts.
func (c *Cache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
