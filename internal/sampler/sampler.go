// Package sampler implements PMT's asynchronous sampling mode over the
// simulated sensors: a background sampler that observes any set of
// pmt.Sensors on fixed tick grids, one rate per role (100 Hz for a rank's
// in-band GPU counter, 10 Hz for the out-of-band Cray/BMC node counters,
// mirroring the real toolkit's measurement threads).
//
// Time in the repository is virtual, so "background" means logically
// concurrent with the instrumented application: whenever the application's
// clock advances past a hook point, the owning goroutine calls
// Channel.Poll, and the channel emits every tick sample that became due
// since the previous poll. Cumulative energy at each tick is linearly
// interpolated between the bracketing sensor reads — exact whenever power
// is constant across the poll window (one kernel batch, one idle stretch),
// and carrying precisely the rate-dependent discretization error a real
// fixed-rate sampler would, which internal/attrib's error model quantifies.
//
// Channels keep their series in bounded ring buffers (old samples are
// dropped, not reallocated), accumulate energy overflow-safely (counter
// wraps and resets clamp to zero delta instead of going negative, and the
// running sum is Kahan-compensated), and count their polls, ticks, drops
// and degradations.
//
// # Degradation
//
// Real sensors flake: reads fail transiently (surfacing here as NaN
// energy, see pmt), and counters go stale while time marches on (the
// pm_counters staleness of Simsek et al. §IV). Channels detect both —
// NaN reads are discarded and counted, and DefaultStuckPolls consecutive
// reads with frozen energy mark the channel stuck — and degrade instead
// of corrupting the series: ticks covering the outage are extrapolated
// from the last observed power, and carry Sample.Degraded so downstream
// attribution can exclude them from validation gates rather than silently
// trusting them. Estimates are kept on the primary counter's cumulative
// scale, so when the primary recovers, real energy reconciles against the
// estimate through the existing negative-delta clamp and nothing is
// double-counted. A channel given its poll clock (Channel.SetClock) also
// flags the window after a stale read, one stamped before its poll.
package sampler

import (
	"fmt"
	"math"
	"slices"

	"sphenergy/internal/blocks"
	"sphenergy/internal/pmt"
)

// Default sampling rates, following the real PMT's per-backend defaults:
// in-band counters (NVML, ROCm-SMI, RAPL) sustain ~100 Hz; the out-of-band
// Cray pm_counters/BMC path collects at 10 Hz.
const (
	DefaultGPUHz  = 100
	DefaultNodeHz = 10
)

// DefaultRingCap bounds each channel's in-memory series. At 100 Hz this
// covers ~10 minutes of virtual time before the oldest samples rotate out.
const DefaultRingCap = 1 << 16

// Config configures the sampler. The zero value means "sampling off";
// setting either rate enables it (Defaulted fills the other).
type Config struct {
	// GPUHz is the tick rate for in-band per-device sensors (NVML/RSMI).
	GPUHz float64
	// NodeHz is the tick rate for out-of-band node sensors (pm_counters).
	NodeHz float64
	// RingCap bounds each channel's sample buffer (DefaultRingCap when 0).
	RingCap int
}

// DefaultStuckPolls is how many consecutive frozen-energy reads mark a
// channel stuck: short natural repetition (double polls at phase
// boundaries) stays below it. A read is "frozen" when energy is
// bit-identical to the previous read and either no time passed or at
// least a full sampling period did — sub-period quantization (a 10 Hz
// pm_counters file re-read within one collection window) is expected, not
// suspicious.
const DefaultStuckPolls = 3

// Enabled reports whether any sampling rate is configured.
func (c Config) Enabled() bool { return c.GPUHz > 0 || c.NodeHz > 0 }

// Defaulted fills unset fields of an enabled config.
func (c Config) Defaulted() Config {
	if !c.Enabled() {
		return c
	}
	if c.GPUHz <= 0 {
		c.GPUHz = DefaultGPUHz
	}
	if c.NodeHz <= 0 {
		c.NodeHz = DefaultNodeHz
	}
	if c.RingCap <= 0 {
		c.RingCap = DefaultRingCap
	}
	return c
}

// Sample is one fixed-rate observation of a sensor.
type Sample struct {
	// TimeS is the tick's virtual time (an exact multiple of the period).
	TimeS float64
	// EnergyJ is the unwrapped cumulative energy since the channel started.
	EnergyJ float64
	// PowerW is the mean power over the tick interval ending at TimeS.
	PowerW float64
	// Degraded marks ticks whose energy is extrapolated from the last
	// observed power rather than observed, plus the first recovered window:
	// downstream validation must not hold these to the observed-data gate.
	Degraded bool
}

// Stats summarizes a channel's sampling behaviour.
type Stats struct {
	Rank int // -1 for node-level channels
	// Polls counts sensor reads; Ticks counts emitted grid samples.
	Polls, Ticks uint64
	// Dropped counts samples rotated out of the bounded ring.
	Dropped uint64
	// FaultReads counts discarded NaN reads (transient sensor failures).
	FaultReads uint64
	// StuckEvents counts transitions into the stuck state.
	StuckEvents uint64
	// DegradedTicks counts emitted samples flagged Degraded.
	DegradedTicks uint64
	// Degraded reports whether the channel is currently degraded.
	Degraded bool
}

// Channel samples one sensor on a fixed tick grid. A nil *Channel is a
// valid no-op, so call sites can poll unconditionally. A channel belongs to
// the goroutine that drives its run, as the device its sensor reads does,
// so it has no lock.
type Channel struct {
	name    string
	rank    int
	sensor  pmt.Sensor
	periodS float64

	// The retained series: a ring of Config.RingCap samples, in blocks.
	ring    blocks.Seq[Sample]
	dropped uint64

	// accumulation state. last is the effective anchor for interpolation,
	// always on the primary counter's cumulative-energy scale — during a
	// degraded stretch it advances by estimated energy, and the primary's
	// next good read reconciles against it via the negative-delta clamp.
	started  bool
	last     pmt.State
	accumJ   float64
	kahanC   float64 // Kahan compensation for accumJ
	tick     int64   // next tick index; tick time = tick * periodS
	lastTick Sample  // most recent emitted sample

	// degradation state
	lastRaw      pmt.State // previous non-NaN primary read, for stuck detection
	rawStarted   bool
	stuckRun     int            // consecutive frozen reads
	stuck        bool           // currently latched stuck
	prevDegraded bool           // previous poll was degraded (flags the recovery window)
	clock        func() float64 // the time a poll happens at (nil: unknown)
	prevStale    bool           // previous read was stamped before its poll (flags the next window)
	onTransition TransitionFunc // fired on degraded<->healthy edges (may be nil)

	// stats
	polls         uint64
	ticks         uint64
	faultReads    uint64
	stuckEvents   uint64
	degradedTicks uint64
}

// Name returns the channel's sensor label.
func (c *Channel) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// classify updates the degradation detectors with a fresh primary read and
// reports whether this poll is degraded.
func (c *Channel) classify(st pmt.State) bool {
	if math.IsNaN(st.EnergyJ) || math.IsNaN(st.TimeS) {
		c.faultReads++
		return true
	}
	// Frozen read: energy bit-identical to the previous read while either
	// no time passed (a stuck sensor replaying its cache) or at least one
	// full period did (a stalled collection loop). Energy repetition
	// within a fraction of a period is ordinary quantization.
	frozen := c.rawStarted && st.EnergyJ == c.lastRaw.EnergyJ &&
		(st.TimeS == c.lastRaw.TimeS || st.TimeS-c.lastRaw.TimeS >= c.periodS*(1-1e-9))
	if frozen {
		c.stuckRun++
	} else if !c.rawStarted || st.EnergyJ != c.lastRaw.EnergyJ {
		c.stuckRun = 0
		c.stuck = false
	}
	c.lastRaw = st
	c.rawStarted = true
	if c.stuckRun >= DefaultStuckPolls && !c.stuck {
		c.stuck = true
		c.stuckEvents++
	}
	return c.stuck
}

// estimate substitutes a degraded primary read with an effective state on
// the primary's cumulative-energy scale: an extrapolation of the last
// observed tick power.
func (c *Channel) estimate(raw pmt.State) pmt.State {
	now := raw.TimeS
	if math.IsNaN(now) || now < c.last.TimeS {
		now = c.last.TimeS
	}
	return pmt.State{TimeS: now, EnergyJ: c.last.EnergyJ + c.lastTick.PowerW*(now-c.last.TimeS)}
}

// Poll reads the sensor and emits every tick sample due since the previous
// poll, interpolating cumulative energy between the two reads. The first
// poll establishes the energy baseline. Degraded reads (NaN, stuck) are
// replaced by estimates and the covered ticks flagged — see the package
// comment. Distinct channels never share state.
func (c *Channel) Poll() {
	if c == nil {
		return
	}
	st := c.sensor.Read()
	c.polls++
	stale := c.clock != nil && st.TimeS < c.clock()
	degraded := c.classify(st)
	if !c.started {
		if degraded {
			// No baseline to anchor an estimate to yet; wait for the
			// first good read.
			return
		}
		c.started = true
		c.last = st
		// First tick at the first grid point at or after the baseline.
		c.tick = int64(math.Ceil(st.TimeS/c.periodS - 1e-9))
		c.lastTick = Sample{TimeS: st.TimeS}
		return
	}
	if degraded {
		st = c.estimate(st)
	}
	// The first good poll after an outage also carries the flag: its ticks
	// span the unobserved window. So does the read after a stale one: the
	// stale state is real but older than its poll, so the next window
	// spans the gap between them, unobserved.
	transition := degraded != c.prevDegraded
	flag := degraded || c.prevDegraded || c.prevStale
	c.prevDegraded = degraded
	c.prevStale = stale
	if transition && c.onTransition != nil {
		detail := "primary-restored"
		if degraded {
			detail = "model-extrapolation"
		}
		c.onTransition(c.name, c.rank, degraded, detail)
	}
	gap := st.TimeS - c.last.TimeS
	if gap < 0 {
		// Sensor time went backwards (should not happen); resynchronize.
		c.last = st
		return
	}
	deltaJ := st.EnergyJ - c.last.EnergyJ
	if deltaJ < 0 {
		// Counter wrap or reset: clamp to zero rather than accumulating a
		// negative delta — the overflow-safe contract.
		deltaJ = 0
	}
	// Emit every tick in (last.TimeS, st.TimeS].
	startAccum := c.accumJ
	for {
		tickT := float64(c.tick) * c.periodS
		if tickT > st.TimeS+1e-12 {
			break
		}
		frac := 1.0
		if gap > 0 {
			frac = (tickT - c.last.TimeS) / gap
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
		}
		e := startAccum + deltaJ*frac
		p := 0.0
		if dt := tickT - c.lastTick.TimeS; dt > 0 {
			p = (e - c.lastTick.EnergyJ) / dt
		}
		s := Sample{TimeS: tickT, EnergyJ: e, PowerW: p, Degraded: flag}
		if flag {
			c.degradedTicks++
		}
		c.push(s)
		c.lastTick = s
		c.ticks++
		c.tick++
	}
	c.kahanAdd(deltaJ)
	c.last = st
}

// kahanAdd accumulates deltaJ into accumJ with Kahan compensation, keeping
// the cumulative sum accurate over millions of small tick deltas.
func (c *Channel) kahanAdd(deltaJ float64) {
	y := deltaJ - c.kahanC
	t := c.accumJ + y
	c.kahanC = (t - c.accumJ) - y
	c.accumJ = t
}

// push appends one sample to the bounded ring.
func (c *Channel) push(s Sample) {
	slot, dropped := c.ring.Push()
	*slot = s
	if dropped {
		c.dropped++
	}
}

// AccumJ returns the overflow-safe cumulative energy since the first poll.
func (c *Channel) AccumJ() float64 {
	if c == nil {
		return 0
	}
	return c.accumJ
}

// Stats returns the channel's sampling statistics.
func (c *Channel) Stats() Stats {
	if c == nil {
		return Stats{Rank: -1}
	}
	return Stats{
		Rank:          c.rank,
		Polls:         c.polls,
		Ticks:         c.ticks,
		Dropped:       c.dropped,
		FaultReads:    c.faultReads,
		StuckEvents:   c.stuckEvents,
		DegradedTicks: c.degradedTicks,
		Degraded:      c.stuck || c.prevDegraded,
	}
}

// TransitionFunc observes a channel crossing a degradation edge: degraded
// is true when the channel just lost its primary (detail names the
// estimation mode, "model-extrapolation") and false when the primary came
// back ("primary-restored"). The callback runs inside the poll, so it must
// be cheap and must not re-enter the channel.
type TransitionFunc func(name string, rank int, degraded bool, detail string)

// Sampler owns a set of channels. A nil *Sampler is a valid no-op. Like
// its channels, a sampler belongs to the goroutine that drives its run.
type Sampler struct {
	cfg      Config
	channels []*Channel
	onTrans  TransitionFunc
}

// SetTransitionSink installs a callback fired whenever a channel enters or
// leaves degradation. Only channels added after the call observe it; set
// the sink before AddRank/AddNode.
func (s *Sampler) SetTransitionSink(fn TransitionFunc) {
	if s == nil {
		return
	}
	s.onTrans = fn
}

// New creates a sampler with the given (defaulted) config.
func New(cfg Config) *Sampler {
	return &Sampler{cfg: cfg.Defaulted()}
}

// Config returns the sampler's effective configuration.
func (s *Sampler) Config() Config {
	if s == nil {
		return Config{}
	}
	return s.cfg
}

// add registers a sensor under a name, rank (-1 for node-level sensors)
// and rate, and returns the new channel.
func (s *Sampler) add(name string, rank int, sensor pmt.Sensor, hz float64) *Channel {
	ch := &Channel{
		name:         name,
		rank:         rank,
		sensor:       sensor,
		periodS:      1 / hz,
		ring:         blocks.Bounded[Sample](s.cfg.RingCap),
		onTransition: s.onTrans,
	}
	s.channels = append(s.channels, ch)
	return ch
}

// SetClock gives the channel the time its polls happen at, the clock of
// the device its sensor reads. A read stamped before it is stale: a
// counter replaying an old state, which may still differ from the previous
// read when another reader of the sensor got a fresh state meanwhile, so
// the frozen-read detector alone does not see it.
func (c *Channel) SetClock(now func() float64) {
	if c == nil {
		return
	}
	c.clock = now
}

// AddRank registers a rank's GPU sensor (NVML, ROCm-SMI) at the in-band
// rate, named after the sensor.
func (s *Sampler) AddRank(rank int, sensor pmt.Sensor) *Channel {
	if s == nil {
		return nil
	}
	return s.add(fmt.Sprintf("rank%d:%s", rank, sensor.Name()), rank, sensor, s.cfg.GPUHz)
}

// AddNode registers a node-level sensor at the node rate.
func (s *Sampler) AddNode(node int, sensor pmt.Sensor) *Channel {
	if s == nil {
		return nil
	}
	return s.add(fmt.Sprintf("node%d:%s", node, sensor.Name()), -1, sensor, s.cfg.NodeHz)
}

// Channels returns all registered channels, in registration order.
func (s *Sampler) Channels() []*Channel {
	if s == nil {
		return nil
	}
	return s.channels
}

// PollAll polls every channel (run start, setup end, final flush).
func (s *Sampler) PollAll() {
	for _, ch := range s.Channels() {
		ch.Poll()
	}
}

// PollNodes polls the node-level channels only; the run loop calls this at
// phase boundaries, rank channels being polled inside the rank phases.
func (s *Sampler) PollNodes() {
	for _, ch := range s.Channels() {
		if ch.rank < 0 {
			ch.Poll()
		}
	}
}

// RankSeries returns each rank's sampled series in time order (the join
// input for internal/attrib).
func (s *Sampler) RankSeries() map[int][]Sample {
	out := map[int][]Sample{}
	s.VisitRankSeries(func(rank int, runs [][]Sample) { out[rank] = slices.Concat(runs...) })
	return out
}

// VisitRankSeries calls visit once for every rank with a channel, in
// registration order, with the rank's series as RankSeries returns it,
// without building it: runs hold the samples, oldest first, in the
// contiguous pieces they are stored in, and are valid only during the
// call. A rank has one channel (AddRank is the only way to make one), and
// a channel's ring is already in time order, so the series is read where
// it lies (visit must not call back into the sampler).
func (s *Sampler) VisitRankSeries(visit func(rank int, runs [][]Sample)) {
	var runs [][]Sample
	for _, ch := range s.Channels() {
		if ch.rank < 0 {
			continue
		}
		runs = runs[:0]
		ch.ring.Runs(func(run []Sample) { runs = append(runs, run) })
		visit(ch.rank, runs)
	}
}

// NodeAccumJ sums the cumulative sampled energy of all node-level channels
// — the "sampled sensors" reading of the three-way validation.
func (s *Sampler) NodeAccumJ() float64 {
	total := 0.0
	for _, ch := range s.Channels() {
		if ch.rank < 0 {
			total += ch.AccumJ()
		}
	}
	return total
}

// Degraded reports whether any channel saw sensor degradation during the
// run (failed reads, stuck stretches, or estimated ticks).
func (s *Sampler) Degraded() bool {
	for _, ch := range s.Channels() {
		st := ch.Stats()
		if st.Degraded || st.DegradedTicks > 0 || st.FaultReads > 0 || st.StuckEvents > 0 {
			return true
		}
	}
	return false
}

// Stats returns per-channel statistics in registration order.
func (s *Sampler) Stats() []Stats {
	chs := s.Channels()
	out := make([]Stats, len(chs))
	for i, ch := range chs {
		out[i] = ch.Stats()
	}
	return out
}
