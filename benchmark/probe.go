package main

import (
	"math"
	"sync"
	"time"
)

// The host-speed probe. The benchmark runs on a few cores of a shared host
// whose memory system other tenants load: the same engine step takes up to
// half as long again from one minute to the next, with no CPU stolen, and no
// bound the contract allows absorbs that. The probe is a fixed piece of work
// of the benchmark's own, shaped like the engine's inner loops (an indexed
// gather over arrays that do not fit the L2 cache, a distance and a square
// root per entry). It runs between the measured ops of an engine workload,
// never inside one, and the repetition's timings are divided by how much
// slower than nominal the probe ran over the same window. The program under
// test is not involved: a change to it moves the timings and leaves the probe
// alone. The model workloads are not memory-bound and do not follow this
// probe (README, "Host slowdown"); theirs is the ALU sampler below.
const (
	probeEntries = 1 << 20 // per array: 28 MB in all against 4 MB of L2
	probeWindow  = 8192    // an entry's partner lies this far ahead at most
	probePasses  = 2
	// probeNominalMs is one probe run on the reference machine (2 vCPUs,
	// GOMAXPROCS 2) in a quiet minute, so that scaled timings read as the
	// seconds of a quiet host.
	probeNominalMs = 12.0
)

type probe struct {
	x, y, z []float64
	partner []int32
	procs   int
	sums    []float64 // one per goroutine, a cache line apart
	totalMs float64
	runs    int
}

func newProbe(procs int) *probe {
	p := &probe{x: make([]float64, probeEntries), y: make([]float64, probeEntries),
		z: make([]float64, probeEntries), partner: make([]int32, probeEntries),
		procs: procs, sums: make([]float64, 8*procs)}
	s := uint64(0x9E3779B97F4A7C15)
	next := func() uint64 { s ^= s << 13; s ^= s >> 7; s ^= s << 17; return s }
	for i := range p.x {
		p.x[i], p.y[i], p.z[i] = float64(next()%1000)/1000, float64(next()%1000)/1000, float64(next()%1000)/1000
		p.partner[i] = int32((i + int(next()%probeWindow)) & (probeEntries - 1))
	}
	return p
}

// run does the fixed work once, split over procs goroutines as the engine
// splits a pass, and adds its duration to the probe's total.
func (p *probe) run() {
	if p == nil {
		return
	}
	t0 := time.Now()
	var wg sync.WaitGroup
	per := probeEntries / p.procs
	for g := 0; g < p.procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			acc := 0.0
			for pass := 0; pass < probePasses; pass++ {
				for k := g * per; k < (g+1)*per; k++ {
					j := p.partner[k]
					dx, dy, dz := p.x[k]-p.x[j], p.y[k]-p.y[j], p.z[k]-p.z[j]
					acc += 1 / math.Sqrt(dx*dx+dy*dy+dz*dz+1e-3)
				}
			}
			p.sums[8*g] += acc
		}(g)
	}
	wg.Wait()
	p.totalMs += time.Since(t0).Seconds() * 1e3
	p.runs++
}

// slowdown is the mean probe run over the nominal one: 1 on a quiet
// reference machine, and 1 for a workload that is not probed.
func (p *probe) slowdown() float64 {
	if p == nil || p.runs == 0 {
		return 1
	}
	return p.totalMs / float64(p.runs) / probeNominalMs
}

// The ALU sampler is the host-speed reference of the model workloads. They
// are branchy integer code that keeps the core's execution ports busy, and
// what moves them on this host is who else runs on the core: the same
// repetition took 5.5 to 9.0 s within ten minutes while the gather probe
// above and a floating-point loop moved a third and a twentieth as much. A
// burst of four independent xorshift streams, nothing but integer ALU work,
// follows them (log-log slope 0.9, correlation 0.8-0.86 over 24 repetitions
// each). Their ops last up to 3.7 s, so the bursts cannot wait for the gaps
// between ops: a goroutine of the benchmark's runs one every aluEvery beside
// the measured ops, 1.4 % of one of the two threads, the same on every
// commit. The repetition's host slowdown is the median burst over the nominal
// one; the median, because a burst a collection or the scheduler interrupts
// reads long.
const (
	aluRounds    = 250_000
	aluEvery     = 50 * time.Millisecond
	aluNominalMs = 0.7 // one burst on the reference machine in a quiet minute
	setupBursts  = 15  // bursts a set-up-only child reads the host's speed from
)

type aluSampler struct {
	ms   []float64
	quit chan struct{}
	done chan struct{}
}

var aluSink uint64

func aluBurst() float64 {
	t0 := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < aluRounds; i++ {
		a ^= a << 13
		a ^= a >> 7
		a ^= a << 17
		b ^= b << 13
		b ^= b >> 7
		b ^= b << 17
		c ^= c << 13
		c ^= c >> 7
		c ^= c << 17
		d ^= d << 13
		d ^= d >> 7
		d ^= d << 17
	}
	aluSink += a + b + c + d
	return time.Since(t0).Seconds() * 1e3
}

// startALUSampler starts the sampling goroutine: one burst at once, then one
// every aluEvery until slowdown stops it.
func startALUSampler() *aluSampler {
	s := &aluSampler{ms: make([]float64, 0, 1024), quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(aluEvery)
		defer tick.Stop()
		for {
			s.ms = append(s.ms, aluBurst())
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// slowdown stops the sampler, waits for its goroutine and returns the median
// burst over the nominal one.
func (s *aluSampler) slowdown() float64 {
	close(s.quit)
	<-s.done
	return median(s.ms) / aluNominalMs
}

// burstSlowdown reads the host's speed on the spot, for a child that has no
// measured window to sample beside: the median of n bursts back to back over
// the nominal one.
func burstSlowdown(n int) float64 {
	ms := make([]float64, n)
	for i := range ms {
		ms[i] = aluBurst()
	}
	return median(ms) / aluNominalMs
}
