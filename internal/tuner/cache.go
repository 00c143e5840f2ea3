package tuner

import (
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
// descriptor (name, problem size, per-item work) and the locked clock. A
// hit therefore returns bit-identical time/energy to the measurement it
// replaced, and results with caching on are indistinguishable from caching
// off. Safe for concurrent use.
type Cache struct {
	mu     sync.Mutex
	m      map[cacheKey]Measurement
	hits   int64
	misses int64
}

type cacheKey struct {
	spec   string
	kernel gpusim.KernelDesc
	mhz    int
}

// NewCache returns an empty measurement cache.
func NewCache() *Cache {
	return &Cache{m: make(map[cacheKey]Measurement)}
}

func (c *Cache) key(spec gpusim.Spec, kernel gpusim.KernelDesc, mhz int) cacheKey {
	return cacheKey{spec: spec.Name, kernel: kernel, mhz: mhz}
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
