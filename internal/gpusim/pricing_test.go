package gpusim

import (
	"encoding/binary"
	"math"
	"testing"
)

// refDevice prices launches the way the device did before it kept its
// clock's factors: every call works out fRel, the voltage and the clock's
// stretch afresh, and a locked launch prices its clock twice, once to
// derate it and once to bill it. FuzzDevicePricing holds Device to it.
type refDevice struct {
	spec        Spec
	vmax        float64
	mode        ClockMode
	lockedMHz   int
	powerLimitW float64
	govCurrent  float64
	holdUntil   float64
	now         float64
	energyJ     float64
	lastPowerW  float64
}

func newRefDevice(s Spec) *refDevice {
	return &refDevice{
		spec:       s,
		vmax:       s.voltageAt(s.MaxSMClockMHz),
		mode:       ModeAuto,
		govCurrent: float64(s.IdleSMClockMHz),
		lastPowerW: s.IdlePowerW,
	}
}

func (d *refDevice) currentClock() int {
	if d.mode == ModeLocked {
		return d.lockedMHz
	}
	return int(d.govCurrent + 0.5)
}

func (d *refDevice) setApplicationClocks(smMHz int) {
	d.mode = ModeLocked
	d.lockedMHz = d.spec.NearestSupportedClock(smMHz)
}

func (d *refDevice) resetApplicationClocks() {
	d.mode = ModeAuto
	if d.lockedMHz > 0 {
		d.govCurrent = float64(d.lockedMHz)
	} else {
		d.govCurrent = float64(d.spec.IdleSMClockMHz)
	}
}

func (d *refDevice) setPowerLimit(watts float64) bool {
	if watts < d.spec.IdlePowerW*1.1 || watts > d.spec.TDPW {
		return false
	}
	d.powerLimitW = watts
	return true
}

func (d *refDevice) durationAt(t kernelTiming, mhz int) float64 {
	scale := float64(d.spec.MaxSMClockMHz) / float64(mhz)
	return t.freqScaledS*scale + t.flatS + t.overheadS
}

func (d *refDevice) power(mhz int, smAct, memAct float64) float64 {
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

func (d *refDevice) rawKernelPower(mhz int, t kernelTiming) float64 {
	const stallRefill = 0.45
	fRel := float64(mhz) / float64(d.spec.MaxSMClockMHz)
	smAct := t.smActivity * (1 + stallRefill*(1-fRel)*t.cFrac)
	if smAct > 1 {
		smAct = 1
	}
	return d.power(mhz, smAct, t.memActivity)
}

func (d *refDevice) kernelPower(mhz int, t kernelTiming) float64 {
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

func (d *refDevice) derateClock(mhz int, t kernelTiming) int {
	limit := d.spec.TDPW
	if d.powerLimitW > 0 {
		limit = d.powerLimitW
	}
	for f := mhz; f >= d.spec.MinSMClockMHz; f -= d.spec.SMClockStepMHz {
		if d.rawKernelPower(f, t) <= limit {
			return f
		}
	}
	return d.spec.MinSMClockMHz
}

func (d *refDevice) account(dur, p float64) {
	d.now += dur
	d.energyJ += p * dur
	d.lastPowerW = p
}

func (d *refDevice) execute(k KernelDesc) {
	t := k.timing(&d.spec)
	if d.mode == ModeLocked {
		eff := d.derateClock(d.lockedMHz, t)
		d.account(d.durationAt(t, eff), d.kernelPower(eff, t))
		return
	}
	g := governor{spec: &d.spec}
	start := d.govCurrent
	tgt := float64(d.derateClock(int(g.target(&t)+0.5), t))
	tau := d.spec.RampTauS
	favg := tgt
	dur := d.durationAt(t, int(favg+0.5))
	for iter := 0; iter < 4; iter++ {
		favg = meanRampFreq(start, tgt, tau, dur)
		if favg < float64(d.spec.IdleSMClockMHz) {
			favg = float64(d.spec.IdleSMClockMHz)
		}
		dur = d.durationAt(t, int(favg+0.5))
	}
	p := d.kernelPower(int(favg+0.5), t)
	d.govCurrent = tgt + (start-tgt)*math.Exp(-dur/tau)
	d.account(dur, p)
	d.holdUntil = d.now + d.spec.BoostHoldS
}

func (d *refDevice) idle(seconds float64) {
	if seconds <= 0 {
		return
	}
	if d.mode == ModeLocked {
		d.account(seconds, d.spec.IdlePowerW)
		return
	}
	remaining := seconds
	if hold := d.holdUntil - d.now; hold > 0 {
		h := math.Min(hold, remaining)
		d.account(h, d.power(int(d.govCurrent+0.5), 0.08, 0.02))
		remaining -= h
	}
	if remaining <= 0 {
		return
	}
	idleF := float64(d.spec.IdleSMClockMHz)
	tau := d.spec.IdleDecayS
	const substeps = 4
	dt := remaining / substeps
	for i := 0; i < substeps; i++ {
		f0 := d.govCurrent
		f1 := idleF + (f0-idleF)*math.Exp(-dt/tau)
		p := d.power(int(meanRampFreq(f0, idleF, tau, dt)+0.5), 0.03, 0.01)
		d.govCurrent = f1
		d.account(dt, p)
	}
}

// A pricing operation is pricingOpLen bytes: a kind, then four
// little-endian uint16 arguments a, b, c, e.
const pricingOpLen = 9

// Operation kinds (the kind byte modulo 9).
const (
	opSetClocks     = 0 // SetApplicationClocks(a%4096 - 500 MHz)
	opResetClocks   = 1
	opSetLimit      = 2 // SetPowerLimit(a/100 W)
	opResetLimit    = 3
	opExecute       = 4 // 4, 5 and 6: a kernel of a·1000 items, b FLOPs and c/10 bytes per item
	opIdle          = 7 // Idle(a µs)
	opLaunchShared  = 8 // the last kernel again, with a·1000 items, through Launch
	pricingOpKinds  = 9
	pricingMHzShift = 500
)

func pricingOp(kind byte, a, b, c, e uint16) []byte {
	op := []byte{kind, 0, 0, 0, 0, 0, 0, 0, 0}
	for i, v := range []uint16{a, b, c, e} {
		binary.LittleEndian.PutUint16(op[1+2*i:], v)
	}
	return op
}

// pricingSeed is a spec index followed by operations.
func pricingSeed(spec byte, ops ...[]byte) []byte {
	out := []byte{spec}
	for _, op := range ops {
		out = append(out, op...)
	}
	return out
}

// FuzzDevicePricing drives a device through random clock sets and resets,
// power caps (some below what the minimum clock draws) and their resets,
// launches and idle windows on the A100-SXM4, A100-PCIe and MI250X GCD
// specs, and after every operation holds its time, energy counter, power and
// clock to refDevice's, bit for bit. A second device takes the same
// operations but launches only copies (Execute); the first launches one
// descriptor shared across operations in place (Launch), as core.Run does
// with a phase's kernel, re-sizing it between launches, and the launch must
// leave the descriptor as it found it.
func FuzzDevicePricing(f *testing.F) {
	set := func(mhz int) []byte { return pricingOp(opSetClocks, uint16(mhz+pricingMHzShift), 0, 0, 0) }
	limit := func(w float64) []byte { return pricingOp(opSetLimit, uint16(w*100), 0, 0, 0) }
	compute := pricingOp(opExecute, 50000, 40000, 1000, 0x8000)
	memory := pricingOp(opExecute+1, 50000, 10, 40000, 0x8000)
	storm := pricingOp(opExecute+2, 10000, 150, 15000, 0x7340)
	idle := pricingOp(opIdle, 3000, 0, 0, 0)
	shared := func(kItems uint16) []byte { return pricingOp(opLaunchShared, kItems, 0, 0, 0) }
	for spec := byte(0); spec < 3; spec++ {
		// Locked clocks, changed between launches and held across them,
		// on-step, off-step and out of range, then back to the governor.
		f.Add(pricingSeed(spec, set(1410), compute, compute, idle, memory,
			set(1005), compute, storm, idle, compute, set(1003), memory, compute,
			set(0), compute, set(3000), storm, compute, pricingOp(opResetClocks, 0, 0, 0, 0),
			compute, idle, storm, memory, idle))
		// Caps: one that derates, one under the minimum clock's draw (the
		// fallback), one out of range, each locked and under the governor.
		f.Add(pricingSeed(spec, set(1410), limit(200), compute, memory, compute,
			limit(40), compute, storm, limit(600), compute,
			pricingOp(opResetLimit, 0, 0, 0, 0), compute,
			pricingOp(opResetClocks, 0, 0, 0, 0), limit(150), compute, idle, compute,
			limit(75), storm, compute, idle, set(705), compute, compute))
		// One descriptor relaunched at new sizes, locked, capped and under
		// the governor, between launches of others.
		f.Add(pricingSeed(spec, shared(1000), set(1410), compute, shared(50000), shared(20),
			idle, memory, shared(0), shared(65535), limit(200), storm, shared(10000),
			pricingOp(opResetClocks, 0, 0, 0, 0), compute, shared(50000), idle, shared(5)))
	}
	specs := []Spec{A100SXM480GB(), A100PCIE40GB(), MI250XGCD()}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		spec := specs[int(data[0])%len(specs)]
		d, byValue, ref := NewDevice(spec, 0), NewDevice(spec, 0), newRefDevice(spec)
		shared := KernelDesc{Name: "shared", Items: 1e6, FlopsPerItem: 100, BytesPerItem: 100}
		for i, op := 0, data[1:]; len(op) >= pricingOpLen; i, op = i+1, op[pricingOpLen:] {
			kind := op[0] % pricingOpKinds
			a := binary.LittleEndian.Uint16(op[1:])
			b := binary.LittleEndian.Uint16(op[3:])
			c := binary.LittleEndian.Uint16(op[5:])
			e := binary.LittleEndian.Uint16(op[7:])
			switch kind {
			case opSetClocks:
				mhz := int(a%4096) - pricingMHzShift
				for _, dev := range []*Device{d, byValue} {
					if _, err := dev.SetApplicationClocks(0, mhz); err != nil {
						t.Fatal(err)
					}
				}
				ref.setApplicationClocks(mhz)
			case opResetClocks:
				d.ResetApplicationClocks()
				byValue.ResetApplicationClocks()
				ref.resetApplicationClocks()
			case opSetLimit:
				w := float64(a) / 100
				byValue.SetPowerLimit(w)
				if ok := d.SetPowerLimit(w) == nil; ok != ref.setPowerLimit(w) {
					t.Fatalf("op %d: SetPowerLimit(%v) accepted %v, reference %v", i, w, ok, !ok)
				}
			case opResetLimit:
				d.ResetPowerLimit()
				byValue.ResetPowerLimit()
				ref.powerLimitW = 0
			case opIdle:
				s := float64(a) * 1e-6
				d.Idle(s)
				byValue.Idle(s)
				ref.idle(s)
			case opLaunchShared:
				shared.Items = float64(a) * 1000
				before := shared
				d.Launch(&shared)
				if shared != before {
					t.Fatalf("op %d: Launch wrote its descriptor: %+v, was %+v", i, shared, before)
				}
				byValue.Execute(shared)
				ref.execute(shared)
			default:
				shared = KernelDesc{
					Name:         "fuzz",
					Items:        float64(a) * 1000,
					FlopsPerItem: float64(b),
					BytesPerItem: float64(c) / 10,
					Launches:     int(e&0xff) % 100,
					EffFactor:    float64(e>>8) / 256,
				}
				d.Execute(shared)
				byValue.Execute(shared)
				ref.execute(shared)
			}
			for _, q := range []struct {
				what                 string
				got, byValue, unmemo float64
			}{
				{"Now", d.Now(), byValue.Now(), ref.now},
				{"EnergyJ", d.EnergyJ(), byValue.EnergyJ(), ref.energyJ},
				{"PowerW", d.lastPowerW, byValue.lastPowerW, ref.lastPowerW},
				{"SMClockMHz", float64(d.SMClockMHz()), float64(byValue.SMClockMHz()), float64(ref.currentClock())},
			} {
				if math.Float64bits(q.got) != math.Float64bits(q.unmemo) {
					t.Fatalf("%s, op %d (kind %d): %s = %v, the unmemoized model gives %v", spec.Name, i, kind, q.what, q.got, q.unmemo)
				}
				if math.Float64bits(q.got) != math.Float64bits(q.byValue) {
					t.Fatalf("%s, op %d (kind %d): %s = %v, launching copies gives %v", spec.Name, i, kind, q.what, q.got, q.byValue)
				}
			}
		}
	})
}
