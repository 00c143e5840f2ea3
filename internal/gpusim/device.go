package gpusim

import "fmt"

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
// creation; callers advance it by executing kernels and idling. A device
// belongs to the goroutine that drives its run: the rank executing on it and
// its management plane (clock sets, NVML and pm_counters reads, the
// sampler's polls) all call it from that one goroutine, so it has no lock.
type Device struct {
	spec  Spec
	vmax  float64 // spec.voltageAt(spec.MaxSMClockMHz), the power model's reference
	index int

	mode        ClockMode
	lockedMHz   int
	powerLimitW float64 // 0 means the TDP default
	gov         governor
	now         float64 // virtual seconds
	energyJ     float64
	lastPowerW  float64

	// The last clock the power model priced and the last one a locked
	// launch was timed at, each with what depends on the clock alone: a
	// locked run prices and times one clock launch after launch.
	priced clockPower
	timed  clockScale

	sink       PointSink
	kernelsRun int64
	obs        Observer
}

// Observer receives device events for external telemetry: completed kernel
// launches and application-clock changes. Callbacks run on the goroutine
// driving the device, once the device's state reflects the event, so
// observers may query the device but must be cheap — they sit on the
// execution path.
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
func (d *Device) SetObserver(o Observer) { d.obs = o }

// NewDevice creates a device with the given spec and index (the position of
// the device within its node, mirroring CUDA device ordinals).
func NewDevice(spec Spec, index int) *Device {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	d := &Device{spec: spec, index: index, mode: ModeAuto}
	d.vmax = d.spec.voltageAt(spec.MaxSMClockMHz)
	// Fill both memos, so that neither serves its zero value as a clock's.
	d.clockPowerAt(spec.MaxSMClockMHz)
	d.clockScaleAt(spec.MaxSMClockMHz)
	d.gov = newGovernor(&d.spec)
	d.lastPowerW = spec.IdlePowerW
	return d
}

// Spec returns the device specification.
func (d *Device) Spec() Spec { return d.spec }

// Index returns the device ordinal within its node.
func (d *Device) Index() int { return d.index }

// Now returns the device's virtual time in seconds.
func (d *Device) Now() float64 { return d.now }

// EnergyJ returns the cumulative energy in joules since creation — the
// counter NVML's totalEnergyConsumption and pm_counters' accel files expose.
func (d *Device) EnergyJ() float64 { return d.energyJ }

// EnergyAt returns the device's virtual time and the energy counter as of
// that time. Sensors timestamp their samples through this.
func (d *Device) EnergyAt() (nowS, energyJ float64) { return d.now, d.energyJ }

// SMClockMHz returns the current SM clock.
func (d *Device) SMClockMHz() int { return d.currentClock() }

// KernelsRun returns the number of kernel launches executed.
func (d *Device) KernelsRun() int64 { return d.kernelsRun }

// SetPointSink installs the sink that receives the device's
// frequency/power trajectory (Fig. 9); nil removes it.
func (d *Device) SetPointSink(s PointSink) { d.sink = s }

// SetApplicationClocks locks the SM clock to the nearest supported value and
// returns the applied clock. This is the simulated equivalent of
// nvmlDeviceSetApplicationsClocks; the memory clock is fixed, so memMHz must
// be 0 (the default) or the spec's MemClockMHz.
func (d *Device) SetApplicationClocks(memMHz, smMHz int) (int, error) {
	if memMHz != 0 && memMHz != d.spec.MemClockMHz {
		return 0, fmt.Errorf("gpusim: unsupported memory clock %d MHz (fixed at %d)", memMHz, d.spec.MemClockMHz)
	}
	applied := d.spec.NearestSupportedClock(smMHz)
	d.mode = ModeLocked
	d.lockedMHz = applied
	d.tracePoint("set-app-clocks")
	if d.obs != nil {
		d.obs.ClockChanged(d.now, applied, "set-app-clocks")
	}
	return applied, nil
}

// ResetApplicationClocks returns the device to governor (DVFS) control,
// the simulated nvmlDeviceResetApplicationsClocks.
func (d *Device) ResetApplicationClocks() {
	d.mode = ModeAuto
	d.gov.current = float64(d.autoEntryClock())
	d.tracePoint("reset-app-clocks")
	if d.obs != nil {
		d.obs.ClockChanged(d.now, d.currentClock(), "reset-app-clocks")
	}
}

func (d *Device) autoEntryClock() int {
	if d.lockedMHz > 0 {
		return d.lockedMHz
	}
	return d.spec.IdleSMClockMHz
}

// Mode returns the current clock management mode.
func (d *Device) Mode() ClockMode { return d.mode }

// currentClock reads the effective SM clock.
func (d *Device) currentClock() int {
	if d.mode == ModeLocked {
		return d.lockedMHz
	}
	return int(d.gov.current + 0.5)
}

// kernelPower computes board power while a kernel with profile t executes
// at the given clock. On top of the base CMOS model it applies the
// stall-refill effect: at lower clocks, memory relatively speeds up, so
// compute-bound kernels keep their pipelines fuller per cycle and per-cycle
// activity rises. This is why compute-bound kernels save less energy from
// down-scaling than their power-vs-frequency curve alone would suggest (the
// limited 13%/19% reductions of Fig. 8b).
func (d *Device) kernelPower(mhz int, t *kernelTiming) float64 {
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
// power-limit derating logic.
func (d *Device) rawKernelPower(mhz int, t *kernelTiming) float64 {
	const stallRefill = 0.45
	c := d.clockPowerAt(mhz)
	smAct := t.smActivity * (1 + stallRefill*(1-c.fRel)*t.cFrac)
	if smAct > 1 {
		smAct = 1
	}
	return d.boardPower(c.smW, smAct, t.memActivity)
}

// power computes the board power draw for the given clock and activity
// levels.
func (d *Device) power(mhz int, smAct, memAct float64) float64 {
	return d.boardPower(d.clockPowerAt(mhz).smW, smAct, memAct)
}

// boardPower is the power model past its clock-only factor smW (see
// clockPower).
func (d *Device) boardPower(smW, smAct, memAct float64) float64 {
	s := &d.spec
	p := s.IdlePowerW + smW*smAct + s.MaxMemPowerW*memAct
	if d.mode == ModeAuto {
		p += s.DVFSMarginW
	}
	if p > s.TDPW {
		p = s.TDPW
	}
	return p
}

// clockPower is what the power model needs of one clock: fRel =
// mhz/MaxSMClockMHz and smW = MaxSMPowerW·vRel²·fRel, the SM term's
// clock-only left prefix, so that smW*smAct has the bits of the whole
// product.
type clockPower struct {
	mhz       int
	fRel, smW float64
}

// clockPowerAt returns the power factors of mhz, working them out (and the
// voltage there) only when mhz is not the clock priced last.
func (d *Device) clockPowerAt(mhz int) *clockPower {
	if mhz != d.priced.mhz {
		s := &d.spec
		fRel := float64(mhz) / float64(s.MaxSMClockMHz)
		vRel := s.voltageAt(mhz) / d.vmax
		d.priced = clockPower{mhz: mhz, fRel: fRel, smW: s.MaxSMPowerW * vRel * vRel * fRel}
	}
	return &d.priced
}

// clockScale is the factor MaxSMClockMHz/mhz by which a kernel's
// frequency-scaled part stretches at mhz.
type clockScale struct {
	mhz   int
	scale float64
}

// clockScaleAt returns the stretch of mhz, dividing only when mhz is not
// the clock a locked launch was timed at last.
func (d *Device) clockScaleAt(mhz int) float64 {
	if mhz != d.timed.mhz {
		d.timed = clockScale{mhz: mhz, scale: float64(d.spec.MaxSMClockMHz) / float64(mhz)}
	}
	return d.timed.scale
}

// Launch runs the kernel batch *k on the device, advancing virtual time and
// integrating energy, and returns the wall (virtual) duration. It reads *k
// in place and neither writes nor keeps it, so a caller may launch one
// descriptor again and again, changing it between launches.
func (d *Device) Launch(k *KernelDesc) float64 {
	t := k.timing(&d.spec)
	startS, startJ := d.now, d.energyJ
	var dur float64
	if d.mode == ModeLocked {
		// An active power limit derates the effective clock below the
		// application-clock setting when the kernel would exceed it.
		// derateClock hands back the power it accepted there.
		eff, p := d.derateClock(d.lockedMHz, &t)
		dur = t.scaledBy(d.clockScaleAt(eff))
		d.account(dur, p, k.Name)
	} else {
		dur = d.gov.executeKernel(d, k, &t)
	}
	d.kernelsRun += int64(k.launches())
	if d.obs != nil {
		d.obs.KernelLaunched(k.Name, startS, dur, d.currentClock(), d.energyJ-startJ)
	}
	return dur
}

// Execute is Launch for a descriptor held by value.
func (d *Device) Execute(k KernelDesc) float64 { return d.Launch(&k) }

// Idle advances virtual time with no kernel activity (communication phases,
// CPU sections). Under DVFS the governor decays clocks during this window.
func (d *Device) Idle(seconds float64) {
	if seconds <= 0 {
		return
	}
	if d.mode == ModeLocked {
		// Application clocks hold the clock setting, but with no work the
		// chip clock-gates: only the idle floor is drawn.
		d.account(seconds, d.spec.IdlePowerW, "")
	} else {
		d.gov.idle(d, seconds)
	}
}

// account advances time by dur at power p.
func (d *Device) account(dur, p float64, kernel string) {
	d.now += dur
	d.energyJ += p * dur
	d.lastPowerW = p
	if d.sink != nil {
		d.sink(TracePoint{
			TimeS:    d.now,
			ClockMHz: d.currentClock(),
			PowerW:   p,
			Kernel:   kernel,
		})
	}
}

func (d *Device) tracePoint(label string) {
	if d.sink != nil {
		d.sink(TracePoint{
			TimeS:    d.now,
			ClockMHz: d.currentClock(),
			PowerW:   d.lastPowerW,
			Kernel:   label,
		})
	}
}
