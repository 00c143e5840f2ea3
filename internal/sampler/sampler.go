// Package sampler implements PMT's asynchronous sampling mode over the
// simulated sensors: a background sampler that observes any set of
// pmt.Sensors on fixed tick grids, one rate per role (100 Hz for a rank's
// in-band GPU counter, 10 Hz for the out-of-band Cray/BMC node counters,
// mirroring the real toolkit's measurement threads).
//
// Time in the repository is virtual, so "background" means logically
// concurrent with the instrumented application: whenever the application's
// clock advances past a hook point, the owning goroutine calls
// Channel.Poll, and the channel emits every tick that became due
// since the previous poll. Cumulative energy at each tick is linearly
// interpolated between the bracketing sensor reads — exact whenever power
// is constant across the poll window (one kernel batch, one idle stretch),
// and carrying precisely the rate-dependent discretization error a real
// fixed-rate sampler would, which internal/attrib's error model quantifies.
//
// A tick's time is implied by its index k on the grid, float64(k)·period,
// so a channel keeps one float64 a tick: the cumulative energy, in a
// bounded ring. Its reader lets go of the ticks it is done with
// (Channel.Release) while the run runs — internal/attrib's join keeps only
// the ticks its waiting spans still read — so a ring holds a window of the
// run, not the run; a full ring rotates its oldest tick out and counts it
// dropped. The energy between two instants is the difference of two
// readings, and a tick's mean power is that difference over the period,
// computed where it is read. Channels accumulate energy overflow-safely
// (counter wraps and resets clamp to zero delta instead of going negative,
// and the running sum is Kahan-compensated), and count their polls, ticks,
// drops and degradations.
//
// # Degradation
//
// Real sensors flake: reads fail transiently (surfacing here as NaN
// energy, see pmt), and counters go stale while time marches on (the
// pm_counters staleness of Simsek et al. §IV). Channels detect both —
// NaN reads are discarded and counted, and DefaultStuckPolls consecutive
// reads with frozen energy mark the channel stuck — and degrade instead
// of corrupting the series: ticks covering the outage are extrapolated
// from the last observed power, and are listed among the series' Degraded
// runs so downstream attribution can exclude them from validation gates
// rather than silently trusting them. Estimates are kept on the primary
// counter's cumulative scale, so when the primary recovers, real energy
// reconciles against the estimate through the existing negative-delta
// clamp and nothing is double-counted. A channel given its poll clock (Channel.SetClock) also
// flags the window after a stale read, one stamped before its poll.
package sampler

import (
	"fmt"
	"math"

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

// DefaultRingCap bounds each channel's in-memory series, in ticks of 8
// bytes (512 KiB a channel when full). A rank channel joined while the run
// runs holds only the window its waiting spans read — from the start of the
// oldest of them to the newest tick, about a step — so the cap bounds that
// window, 655 s of it at 100 Hz, not the run; a channel nothing releases
// (a node's, or a rank's in a run without a tracer) holds its newest 655 s.
const DefaultRingCap = 1 << 16

// Config configures the sampler. The zero value means "sampling off";
// setting either rate enables it (Defaulted fills the other).
type Config struct {
	// GPUHz is the tick rate for in-band per-device sensors (NVML/RSMI).
	GPUHz float64
	// NodeHz is the tick rate for out-of-band node sensors (pm_counters).
	NodeHz float64
	// RingCap bounds each channel's held ticks (DefaultRingCap when 0).
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

// Series is a channel's retained tick series, read where the channel keeps
// it: held tick i is grid tick First+i, at time TimeS(i), and Energies
// holds its unwrapped cumulative energy since the channel started. It is a
// view, valid until the channel is polled or released again.
type Series struct {
	// First is the grid index of the oldest held tick. It advances as the
	// channel releases ticks and as the bounded ring drops them.
	First int64
	// PeriodS is the tick period.
	PeriodS float64
	// Energies holds one cumulative energy a tick, oldest first.
	Energies blocks.Seq[float64]
	// Degraded lists the flagged ticks, oldest first, as runs of grid
	// indices, none below First. A flagged tick's energy is extrapolated
	// from the last observed power rather than observed, or it closes the
	// first window after an outage or a stale read: downstream validation
	// must not hold the interval ending at it to the observed-data gate.
	Degraded []TickRun
}

// TickRun is the grid ticks [From, To).
type TickRun struct{ From, To int64 }

// Len returns the number of ticks held.
func (s *Series) Len() int { return s.Energies.Len() }

// TimeS returns held tick i's time, its grid index times the period: the
// product Poll emitted it at, to the bit.
func (s *Series) TimeS(i int) float64 { return float64(s.First+int64(i)) * s.PeriodS }

// Stats summarizes a channel's sampling behaviour.
type Stats struct {
	Rank int // -1 for node-level channels
	// Polls counts sensor reads; Ticks counts emitted grid ticks.
	Polls, Ticks uint64
	// Dropped counts ticks a full ring rotated out; a released tick is not
	// one of them.
	Dropped uint64
	// FaultReads counts discarded NaN reads (transient sensor failures).
	FaultReads uint64
	// StuckEvents counts transitions into the stuck state.
	StuckEvents uint64
	// DegradedTicks counts emitted ticks flagged degraded.
	DegradedTicks uint64
	// Degraded reports whether the channel is currently degraded.
	Degraded bool
}

// Channel samples one sensor on a fixed tick grid. Its series is a ring of
// at most Config.RingCap energies, 8 bytes a tick, in blocks: the held
// ticks are contiguous on the grid and end at the newest, so a tick's
// index, and with it its time, follows from its place in the ring. A nil *Channel is a
// valid no-op, so call sites can poll unconditionally. A channel belongs to
// the goroutine that drives its run, as the device its sensor reads does,
// so it has no lock.
type Channel struct {
	name    string
	rank    int
	sensor  pmt.Sensor
	periodS float64

	// The retained series: the energies and the runs of flagged ticks.
	ring     blocks.Seq[float64]
	degraded []TickRun
	dropped  uint64

	// accumulation state. last is the effective anchor for interpolation,
	// always on the primary counter's cumulative-energy scale — during a
	// degraded stretch it advances by estimated energy, and the primary's
	// next good read reconciles against it via the negative-delta clamp.
	started bool
	last    pmt.State
	accumJ  float64
	kahanC  float64 // Kahan compensation for accumJ
	tick    int64   // next tick index; tick time = tick * periodS
	// The most recent emitted tick's time, energy and mean power (the
	// baseline's time, 0 and 0 before the first): the next tick's power is
	// reckoned from it, and estimate extrapolates its power.
	lastT, lastE, lastP float64

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
	return pmt.State{TimeS: now, EnergyJ: c.last.EnergyJ + c.lastP*(now-c.last.TimeS)}
}

// Poll reads the sensor and emits every tick due since the previous
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
		c.lastT = st.TimeS
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
	var prevT, prevE float64 // the newest tick's predecessor
	from := c.tick
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
		c.push(e)
		if flag {
			c.markDegraded()
		}
		prevT, prevE = c.lastT, c.lastE
		c.lastT, c.lastE = tickT, e
		c.ticks++
		c.tick++
	}
	// Only the newest tick's power is read (estimate extrapolates it).
	if c.tick != from {
		c.lastP = 0
		if dt := c.lastT - prevT; dt > 0 {
			c.lastP = (c.lastE - prevE) / dt
		}
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

// push appends tick c.tick's energy to the bounded ring. A full ring drops
// its oldest tick, and a degraded run that began there is clipped.
func (c *Channel) push(e float64) {
	slot, dropped := c.ring.Push()
	*slot = e
	if !dropped {
		return
	}
	c.dropped++
	c.clipDegraded(c.tick + 1 - int64(c.ring.Len()))
}

// markDegraded flags tick c.tick, just pushed: it extends the newest run
// when that ends at the tick, else starts one.
func (c *Channel) markDegraded() {
	c.degradedTicks++
	if n := len(c.degraded); n > 0 && c.degraded[n-1].To == c.tick {
		c.degraded[n-1].To++
		return
	}
	c.degraded = append(c.degraded, TickRun{From: c.tick, To: c.tick + 1})
}

// Series returns the channel's retained series, read in place.
func (c *Channel) Series() Series {
	return Series{
		First:    c.tick - int64(c.ring.Len()),
		PeriodS:  c.periodS,
		Energies: c.ring,
		Degraded: c.degraded,
	}
}

// Release lets go of the held ticks before grid tick k, and of the degraded
// runs among them: the reader is done with them. They are not dropped
// ticks, and a k past the newest tick empties the series.
func (c *Channel) Release(k int64) {
	if c == nil {
		return
	}
	first := c.tick - int64(c.ring.Len())
	if k <= first {
		return
	}
	c.ring.Drop(int(min(k, c.tick) - first))
	c.clipDegraded(k)
}

// clipDegraded removes the degraded runs before grid tick k and clips the
// one that straddles it.
func (c *Channel) clipDegraded(k int64) {
	drop := 0
	for drop < len(c.degraded) && c.degraded[drop].To <= k {
		drop++
	}
	c.degraded = c.degraded[drop:]
	if len(c.degraded) > 0 && c.degraded[0].From < k {
		c.degraded[0].From = k
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
		ring:         blocks.Bounded[float64](s.cfg.RingCap),
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

// RankSeries returns each rank's held series (attrib.Build's input), read
// where its channel keeps it: a rank has one channel (AddRank is the only
// way to make one), and no tick is copied. A channel that a run joined
// while it ran holds the ticks since its oldest span left waiting.
func (s *Sampler) RankSeries() map[int]Series {
	out := map[int]Series{}
	for _, ch := range s.Channels() {
		if ch.rank >= 0 {
			out[ch.rank] = ch.Series()
		}
	}
	return out
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
