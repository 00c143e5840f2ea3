package gpusim

import "math"

// KernelDesc characterizes one GPU kernel launch batch: the computational
// work it performs and how that work stresses the device. The SPH layer
// produces one descriptor per instrumented function and step.
type KernelDesc struct {
	// Name labels the kernel in traces and per-function accounting.
	Name string

	// Items is the number of independent work items (typically particles).
	Items float64

	// FlopsPerItem and BytesPerItem describe the arithmetic work and memory
	// traffic per item. Their ratio against the device's FLOP/byte balance
	// point determines the kernel's frequency sensitivity.
	FlopsPerItem float64
	BytesPerItem float64

	// Launches is the number of individual kernel launches this descriptor
	// represents (lightweight multi-launch phases such as the paper's
	// DomainDecompAndSync set this high).
	Launches int

	// EffFactor scales the achieved throughput relative to device peak
	// (code-quality/implementation maturity on this architecture); 0 means 1.
	EffFactor float64
}

func (k KernelDesc) launches() int {
	if k.Launches < 1 {
		return 1
	}
	return k.Launches
}

func (k KernelDesc) eff() float64 {
	if k.EffFactor <= 0 {
		return 1
	}
	return k.EffFactor
}

// kernelTiming holds the frequency-decomposed execution profile of a kernel
// on a given device.
type kernelTiming struct {
	// freqScaledS is the portion of the kernel body (seconds at fmax) that
	// scales inversely with SM frequency (compute/issue/latency cycles).
	freqScaledS float64
	// flatS is the frequency-insensitive portion (memory bandwidth bound).
	flatS float64
	// overheadS is launch/driver overhead in wall time, paid per launch.
	overheadS float64
	// smActivity and memActivity in [0,1] drive the power model.
	smActivity, memActivity float64
	// cFrac is the compute-bound fraction tc/(tc+tm); the power model uses
	// it for the stall-refill effect (see Device.kernelPower).
	cFrac float64
	// occupancy in (0,1] is the device fill level; the governor's
	// utilization heuristic reads it.
	occupancy float64
}

// timing computes the kernel profile for a spec. The model:
//
//	t_compute(fmax) = flops / (peak · eff · occupancy)
//	t_memory        = bytes / (BW · occupancy)
//
// with occupancy = items/(items + knee) capturing the throughput loss of
// under-filled devices. The compute part scales with fmax/f at a lower
// frequency f; the memory part does not (HBM clock held constant, as in the
// paper's experiments). The spec is read through a pointer: it is 224 bytes
// and this runs once per launch.
func (k KernelDesc) timing(s *Spec) kernelTiming {
	occ := k.Items / (k.Items + s.SaturationItems)
	if occ <= 0 {
		occ = 1e-6
	}
	flops := k.Items * k.FlopsPerItem
	bytes := k.Items * k.BytesPerItem
	tc := flops / (s.PeakGFLOPS * 1e9 * k.eff() * occ)
	tm := bytes / (s.MemBWGBs * 1e9 * occ)
	if s.PureRooflineOverlap {
		// Perfect overlap: the shorter phase hides entirely behind the
		// longer one. Attribute the hidden phase's time to the visible one
		// so the frequency decomposition stays consistent.
		if tc >= tm {
			tm = 0
		} else {
			tc = 0
		}
	}
	tot := tc + tm
	var smAct, memAct, cFrac float64
	if tot > 0 {
		cFrac = tc / tot
		smAct = 0.35 + 0.65*cFrac // even memory-bound kernels toggle SMs
		memAct = 0.15 + 0.85*tm/tot
	}
	return kernelTiming{
		freqScaledS: tc,
		flatS:       tm,
		overheadS:   float64(k.launches()) * s.KernelLaunchOverheadS,
		smActivity:  smAct,
		memActivity: memAct,
		cFrac:       cFrac,
		occupancy:   occ,
	}
}

// durationAt returns the kernel body + overhead duration when the SM clock
// runs at mhz.
func (t kernelTiming) durationAt(s *Spec, mhz int) float64 {
	scale := float64(s.MaxSMClockMHz) / float64(mhz)
	return t.freqScaledS*scale + t.flatS + t.overheadS
}

// FrequencySensitivity returns the β ∈ [0,1] fraction of the kernel body
// that scales with frequency, a diagnostic used by tests and the governor's
// utilization heuristic.
func (k KernelDesc) FrequencySensitivity(s Spec) float64 {
	t := k.timing(&s)
	body := t.freqScaledS + t.flatS + t.overheadS
	if body <= 0 {
		return 0
	}
	return t.freqScaledS / body
}

// EstimateDuration predicts the wall time of the kernel at a locked clock,
// without executing it on a device. Used by the tuner's dry-run mode and by
// tests.
func (k KernelDesc) EstimateDuration(s Spec, mhz int) float64 {
	return k.timing(&s).durationAt(&s, mhz)
}

// ArithmeticIntensity returns flops/byte for the descriptor.
func (k KernelDesc) ArithmeticIntensity() float64 {
	if k.BytesPerItem == 0 {
		return math.Inf(1)
	}
	return k.FlopsPerItem / k.BytesPerItem
}
