package gpusim

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// ClockMode describes how the SM clock is being managed.
type ClockMode int

// Clock management modes.
const (
	// ModeAuto lets the simulated DVFS governor drive the clock.
	ModeAuto ClockMode = iota
	// ModeLocked pins the clock to the application-clock setting.
	ModeLocked
)

// Device is one simulated GPU. All time is virtual, in seconds since device
// creation; callers advance it by executing kernels and idling. Devices are
// safe for concurrent use (the management plane — NVML queries, pm_counters
// sampling — may run from other goroutines than the rank driving the
// device).
type Device struct {
	mu sync.Mutex

	spec  Spec
	vmax  float64 // spec.VoltageAt(spec.MaxSMClockMHz), the power model's reference
	index int

	mode        ClockMode
	lockedMHz   int
	memMHz      int
	powerLimitW float64 // 0 means the TDP default
	gov         governor
	now         float64 // virtual seconds
	energyJ     float64
	lastPowerW  float64

	// Busy/idle accounting for utilization queries.
	busyS float64
	// window utilization tracking (exponential moving average).
	utilEMA float64

	trace      *Trace
	kernelsRun int64
	obs        Observer

	// kstats accumulates ground-truth per-kernel time/energy from the
	// model's own integration — the reference the sampling-based
	// attribution layer validates against.
	kstats map[string]*KernelEnergy
}

// KernelEnergy is the model's ground-truth accounting for one kernel:
// exact integrated energy and busy time across all launches, independent
// of any sampling rate.
type KernelEnergy struct {
	Name     string
	Launches int64
	TimeS    float64
	EnergyJ  float64
}

// Observer receives device events for external telemetry: completed kernel
// launches and application-clock changes. Callbacks run on the goroutine
// driving the device, after the device releases its lock, so observers may
// query the device but must be cheap — they sit on the execution path.
type Observer interface {
	// KernelLaunched reports one completed kernel batch: its virtual start
	// time, duration, the effective SM clock it ran at, and the energy it
	// consumed.
	KernelLaunched(name string, startS, durS float64, clockMHz int, energyJ float64)
	// ClockChanged reports an application-clock operation ("set-app-clocks"
	// or "reset-app-clocks") and the clock in effect afterwards.
	ClockChanged(timeS float64, clockMHz int, cause string)
}

// SetObserver installs the telemetry observer; nil removes it.
func (d *Device) SetObserver(o Observer) {
	d.mu.Lock()
	d.obs = o
	d.mu.Unlock()
}

// NewDevice creates a device with the given spec and index (the position of
// the device within its node, mirroring CUDA device ordinals).
func NewDevice(spec Spec, index int) *Device {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	d := &Device{spec: spec, index: index, mode: ModeAuto, memMHz: spec.MemClockMHz}
	d.vmax = d.spec.voltageAt(spec.MaxSMClockMHz)
	d.gov = newGovernor(&d.spec)
	d.lastPowerW = spec.IdlePowerW
	return d
}

// Spec returns the device specification.
func (d *Device) Spec() Spec { return d.spec }

// Index returns the device ordinal within its node.
func (d *Device) Index() int { return d.index }

// Now returns the device's virtual time in seconds.
func (d *Device) Now() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.now
}

// EnergyJ returns the cumulative energy in joules since creation — the
// counter NVML's totalEnergyConsumption and pm_counters' accel files expose.
func (d *Device) EnergyJ() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.energyJ
}

// EnergyAt returns the device's virtual time and the energy counter as of
// that time, read under one hold of the lock: Now() and EnergyJ() called in
// turn can straddle a launch and pair a time with joules the device never
// had at it. Sensors timestamp their samples through this.
func (d *Device) EnergyAt() (nowS, energyJ float64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.now, d.energyJ
}

// PowerW returns the most recent instantaneous board power.
func (d *Device) PowerW() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastPowerW
}

// SMClockMHz returns the current SM clock.
func (d *Device) SMClockMHz() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.currentClockLocked()
}

// MemClockMHz returns the current memory clock.
func (d *Device) MemClockMHz() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.memMHz
}

// memRatio is the current memory clock relative to the maximum; caller
// holds d.mu. It scales achievable bandwidth and memory power.
func (d *Device) memRatio() float64 {
	return float64(d.memMHz) / float64(d.spec.MemClockMHz)
}

// Utilization returns a smoothed busy fraction in [0,1], mirroring the
// coarse utilization numbers nvidia-smi/rocm-smi report (the paper and [25]
// note these overestimate true SM occupancy).
func (d *Device) Utilization() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.utilEMA
}

// KernelsRun returns the number of kernel launches executed.
func (d *Device) KernelsRun() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.kernelsRun
}

// EnableTrace starts recording a frequency/power trace (Fig. 9).
func (d *Device) EnableTrace() *Trace {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.trace = NewTrace()
	return d.trace
}

// SetApplicationClocks locks the SM clock to the nearest supported value and
// returns the applied clock. This is the simulated equivalent of
// nvmlDeviceSetApplicationsClocks (memory clock argument accepted for
// interface fidelity; it must match the device's fixed memory clock).
func (d *Device) SetApplicationClocks(memMHz, smMHz int) (int, error) {
	d.mu.Lock()
	if memMHz != 0 {
		snapped := d.spec.NearestMemClock(memMHz)
		if abs(snapped-memMHz) > d.spec.MemClockMHz/10 {
			d.mu.Unlock()
			return 0, fmt.Errorf("gpusim: unsupported memory clock %d MHz (supported: %v)", memMHz, d.spec.MemClocksMHz())
		}
		d.memMHz = snapped
	}
	applied := d.spec.NearestSupportedClock(smMHz)
	d.mode = ModeLocked
	d.lockedMHz = applied
	d.tracePoint("set-app-clocks")
	obs, now := d.obs, d.now
	d.mu.Unlock()
	if obs != nil {
		obs.ClockChanged(now, applied, "set-app-clocks")
	}
	return applied, nil
}

// ResetApplicationClocks returns the device to governor (DVFS) control,
// the simulated nvmlDeviceResetApplicationsClocks.
func (d *Device) ResetApplicationClocks() {
	d.mu.Lock()
	d.mode = ModeAuto
	d.gov.current = float64(d.currentClockAutoEntryLocked())
	d.tracePoint("reset-app-clocks")
	obs, now, clock := d.obs, d.now, d.currentClockLocked()
	d.mu.Unlock()
	if obs != nil {
		obs.ClockChanged(now, clock, "reset-app-clocks")
	}
}

func (d *Device) currentClockAutoEntryLocked() int {
	if d.lockedMHz > 0 {
		return d.lockedMHz
	}
	return d.spec.IdleSMClockMHz
}

// Mode returns the current clock management mode.
func (d *Device) Mode() ClockMode {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.mode
}

// currentClockLocked reads the effective SM clock; caller holds d.mu.
func (d *Device) currentClockLocked() int {
	if d.mode == ModeLocked {
		return d.lockedMHz
	}
	return int(d.gov.current + 0.5)
}

// kernelPower computes board power while a kernel with profile t executes
// at the given clock; caller holds d.mu. On top of the base CMOS model it
// applies the stall-refill effect: at lower clocks, memory relatively
// speeds up, so compute-bound kernels keep their pipelines fuller per cycle
// and per-cycle activity rises. This is why compute-bound kernels save less
// energy from down-scaling than their power-vs-frequency curve alone would
// suggest (the limited 13%/19% reductions of Fig. 8b).
func (d *Device) kernelPower(mhz int, t kernelTiming) float64 {
	p := d.rawKernelPower(mhz, t)
	limit := d.spec.TDPW
	if d.powerLimitW > 0 && d.powerLimitW < limit {
		limit = d.powerLimitW
	}
	if p > limit {
		p = limit
	}
	return p
}

// rawKernelPower is kernelPower without the board cap, used by the
// power-limit derating logic; caller holds d.mu.
func (d *Device) rawKernelPower(mhz int, t kernelTiming) float64 {
	const stallRefill = 0.45
	fRel := float64(mhz) / float64(d.spec.MaxSMClockMHz)
	smAct := t.smActivity * (1 + stallRefill*(1-fRel)*t.cFrac)
	if smAct > 1 {
		smAct = 1
	}
	return d.power(mhz, smAct, t.memActivity)
}

// power computes the board power draw for the given clock and activity
// levels; caller holds d.mu.
func (d *Device) power(mhz int, smAct, memAct float64) float64 {
	s := &d.spec
	fRel := float64(mhz) / float64(s.MaxSMClockMHz)
	vRel := s.voltageAt(mhz) / d.vmax
	p := s.IdlePowerW +
		s.MaxSMPowerW*vRel*vRel*fRel*smAct +
		s.MaxMemPowerW*memAct
	if d.mode == ModeAuto {
		p += s.DVFSMarginW
	}
	if p > s.TDPW {
		p = s.TDPW
	}
	return p
}

// Execute runs a kernel batch on the device, advancing virtual time and
// integrating energy. It returns the wall (virtual) duration.
func (d *Device) Execute(k KernelDesc) float64 {
	d.mu.Lock()
	t := k.timing(&d.spec)
	// A down-scaled memory clock stretches the bandwidth-bound portion and
	// reduces memory-subsystem power proportionally.
	if r := d.memRatio(); r < 1 {
		t.flatS /= r
		t.memActivity *= r
	}
	startS, startJ := d.now, d.energyJ
	var dur float64
	if d.mode == ModeLocked {
		// An active power limit derates the effective clock below the
		// application-clock setting when the kernel would exceed it.
		eff := d.derateClock(d.lockedMHz, t)
		dur = t.durationAt(&d.spec, eff)
		p := d.kernelPower(eff, t)
		d.accountLocked(dur, p, k.Name)
	} else {
		dur = d.gov.executeKernel(d, k, t)
	}
	d.busyS += dur
	d.updateUtilLocked(dur, 1)
	d.kernelsRun += int64(k.launches())
	if d.kstats == nil {
		d.kstats = map[string]*KernelEnergy{}
	}
	ks, ok := d.kstats[k.Name]
	if !ok {
		ks = &KernelEnergy{Name: k.Name}
		d.kstats[k.Name] = ks
	}
	ks.Launches += int64(k.launches())
	ks.TimeS += dur
	ks.EnergyJ += d.energyJ - startJ
	obs, clock, energy := d.obs, d.currentClockLocked(), d.energyJ-startJ
	d.mu.Unlock()
	if obs != nil {
		obs.KernelLaunched(k.Name, startS, dur, clock, energy)
	}
	return dur
}

// Idle advances virtual time with no kernel activity (communication phases,
// CPU sections). Under DVFS the governor decays clocks during this window.
func (d *Device) Idle(seconds float64) {
	if seconds <= 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.mode == ModeLocked {
		// Application clocks hold the clock setting, but with no work the
		// chip clock-gates: only the idle floor is drawn.
		d.accountLocked(seconds, d.spec.IdlePowerW, "")
	} else {
		d.gov.idle(d, seconds)
	}
	d.updateUtilLocked(seconds, 0)
}

// accountLocked advances time by dur at power p; caller holds d.mu.
func (d *Device) accountLocked(dur, p float64, kernel string) {
	d.now += dur
	d.energyJ += p * dur
	d.lastPowerW = p
	if d.trace != nil {
		d.trace.Add(TracePoint{
			TimeS:    d.now,
			ClockMHz: d.currentClockLocked(),
			PowerW:   p,
			Kernel:   kernel,
		})
	}
}

func (d *Device) tracePoint(label string) {
	if d.trace != nil {
		d.trace.Add(TracePoint{
			TimeS:    d.now,
			ClockMHz: d.currentClockLocked(),
			PowerW:   d.lastPowerW,
			Kernel:   label,
		})
	}
}

func (d *Device) updateUtilLocked(dur, busy float64) {
	if dur <= 0 {
		return
	}
	// EMA with ~100 ms time constant, matching management-API smoothing.
	const tau = 0.1
	w := math.Exp(-dur / tau)
	d.utilEMA = d.utilEMA*w + busy*(1-w)
}

// ThrottleReason explains why the effective clock sits below the maximum,
// mirroring nvmlDeviceGetCurrentClocksThrottleReasons.
type ThrottleReason int

// Throttle reasons (bit-flag style, combinable).
const (
	ThrottleNone ThrottleReason = 0
	// ThrottleIdle: clocks parked because the device is idle (auto mode).
	ThrottleIdle ThrottleReason = 1 << iota
	// ThrottleAppClocks: a user application-clock setting caps the clock.
	ThrottleAppClocks
	// ThrottlePowerCap: the power limit derates the clock.
	ThrottlePowerCap
)

// String renders the reason set.
func (r ThrottleReason) String() string {
	if r == ThrottleNone {
		return "none"
	}
	out := ""
	add := func(s string) {
		if out != "" {
			out += "|"
		}
		out += s
	}
	if r&ThrottleIdle != 0 {
		add("idle")
	}
	if r&ThrottleAppClocks != 0 {
		add("app-clocks")
	}
	if r&ThrottlePowerCap != 0 {
		add("power-cap")
	}
	return out
}

// ThrottleReasons reports why the current clock is below the maximum.
func (d *Device) ThrottleReasons() ThrottleReason {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.currentClockLocked()
	if cur >= d.spec.MaxSMClockMHz {
		return ThrottleNone
	}
	var r ThrottleReason
	if d.mode == ModeLocked {
		if d.lockedMHz < d.spec.MaxSMClockMHz {
			r |= ThrottleAppClocks
		}
	} else {
		r |= ThrottleIdle
	}
	if d.powerLimitW > 0 && d.powerLimitW < d.spec.TDPW {
		r |= ThrottlePowerCap
	}
	return r
}

// KernelEnergies snapshots the ground-truth per-kernel accounting, sorted
// by descending energy.
func (d *Device) KernelEnergies() []KernelEnergy {
	d.mu.Lock()
	out := make([]KernelEnergy, 0, len(d.kstats))
	for _, ks := range d.kstats {
		out = append(out, *ks)
	}
	d.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if out[a].EnergyJ != out[b].EnergyJ {
			return out[a].EnergyJ > out[b].EnergyJ
		}
		return out[a].Name < out[b].Name
	})
	return out
}

// BusySeconds returns the cumulative kernel-execution time.
func (d *Device) BusySeconds() float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.busyS
}

// DeviceState is a device's checkpointable state: clock management mode
// and settings, governor position, virtual time, energy/power/utilization
// accounting, and the ground-truth per-kernel counters. The trace buffer
// and observer are observability wiring, not model state, and are not
// captured. Kernel entries are sorted by name so the encoding is stable.
type DeviceState struct {
	Mode         int
	LockedMHz    int
	MemMHz       int
	PowerLimitW  float64
	GovCurrent   float64
	GovHoldUntil float64
	NowS         float64
	EnergyJ      float64
	LastPowerW   float64
	BusyS        float64
	UtilEMA      float64
	KernelsRun   int64
	Kernels      []KernelEnergy
}

// State captures the device's checkpointable state.
func (d *Device) State() DeviceState {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := DeviceState{
		Mode:         int(d.mode),
		LockedMHz:    d.lockedMHz,
		MemMHz:       d.memMHz,
		PowerLimitW:  d.powerLimitW,
		GovCurrent:   d.gov.current,
		GovHoldUntil: d.gov.holdUntil,
		NowS:         d.now,
		EnergyJ:      d.energyJ,
		LastPowerW:   d.lastPowerW,
		BusyS:        d.busyS,
		UtilEMA:      d.utilEMA,
		KernelsRun:   d.kernelsRun,
	}
	for _, ks := range d.kstats {
		st.Kernels = append(st.Kernels, *ks)
	}
	sort.Slice(st.Kernels, func(a, b int) bool { return st.Kernels[a].Name < st.Kernels[b].Name })
	return st
}

// Restore installs a state captured by State, leaving the trace and
// observer wiring untouched. A restored device continues the exact
// trajectory of the original: governor position, boost hold, and energy
// integration pick up where the snapshot left off.
func (d *Device) Restore(st DeviceState) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mode = ClockMode(st.Mode)
	d.lockedMHz = st.LockedMHz
	d.memMHz = st.MemMHz
	d.powerLimitW = st.PowerLimitW
	d.gov.current = st.GovCurrent
	d.gov.holdUntil = st.GovHoldUntil
	d.now = st.NowS
	d.energyJ = st.EnergyJ
	d.lastPowerW = st.LastPowerW
	d.busyS = st.BusyS
	d.utilEMA = st.UtilEMA
	d.kernelsRun = st.KernelsRun
	d.kstats = make(map[string]*KernelEnergy, len(st.Kernels))
	for _, ks := range st.Kernels {
		cp := ks
		d.kstats[ks.Name] = &cp
	}
}
