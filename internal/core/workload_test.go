package core

import (
	"testing"

	"sphenergy/internal/gpusim"
)

func TestPipelineComposition(t *testing.T) {
	turb, err := Pipeline(Turbulence)
	if err != nil {
		t.Fatal(err)
	}
	evr, err := Pipeline(Evrard)
	if err != nil {
		t.Fatal(err)
	}
	if len(evr) != len(turb)+1 {
		t.Errorf("Evrard has %d functions, Turbulence %d; want exactly one more (Gravity)",
			len(evr), len(turb))
	}
	hasGravity := false
	for _, f := range evr {
		if f.Name == FnGravity {
			hasGravity = true
		}
	}
	if !hasGravity {
		t.Error("Evrard pipeline missing Gravity")
	}
	for _, f := range turb {
		if f.Name == FnGravity {
			t.Error("Turbulence pipeline must not include Gravity")
		}
	}
	if _, err := Pipeline(SimKind("sedov")); err == nil {
		t.Error("unknown pipeline accepted")
	}
}

func TestPipelineOrdering(t *testing.T) {
	names := PipelineFunctionNames(Turbulence)
	if names[0] != FnDomainDecomp {
		t.Errorf("first function %q, want DomainDecompAndSync", names[0])
	}
	if names[len(names)-1] != FnUpdate {
		t.Errorf("last function %q, want UpdateQuantities", names[len(names)-1])
	}
	// MomentumEnergy comes after IAD (it consumes divv/curlv).
	iad, me := -1, -1
	for i, n := range names {
		if n == FnIAD {
			iad = i
		}
		if n == FnMomentum {
			me = i
		}
	}
	if iad < 0 || me < 0 || me < iad {
		t.Error("MomentumEnergy must follow IADVelocityDivCurl")
	}
}

func TestKernelDescScalesWithParticles(t *testing.T) {
	fn := TurbulencePipeline()[0]
	small := fn.Kernel(1e6, 150, gpusim.Nvidia)
	large := fn.Kernel(2e6, 150, gpusim.Nvidia)
	if large.Items != 2*small.Items {
		t.Error("items not proportional to particle count")
	}
	if large.FlopsPerItem != small.FlopsPerItem {
		t.Error("per-item work should not depend on particle count")
	}
}

func TestKernelDescScalesWithNeighbors(t *testing.T) {
	var me FuncModel
	for _, f := range TurbulencePipeline() {
		if f.Name == FnMomentum {
			me = f
		}
	}
	k100 := me.Kernel(1e6, 100, gpusim.Nvidia)
	k200 := me.Kernel(1e6, 200, gpusim.Nvidia)
	if k200.FlopsPerItem <= k100.FlopsPerItem*1.5 {
		t.Error("neighbor-scaled flops not growing with ng")
	}
}

func TestVendorEfficiencyGap(t *testing.T) {
	// The paper's observation: MomentumEnergy is far less optimized on AMD,
	// the other kernels less so. Check that the ME time ratio AMD/Nvidia
	// exceeds the XMass ratio.
	var me, xm FuncModel
	for _, f := range TurbulencePipeline() {
		switch f.Name {
		case FnMomentum:
			me = f
		case FnXMass:
			xm = f
		}
	}
	amd := gpusim.MI250XGCD()
	nv := gpusim.A100SXM480GB()
	// One launch on a fresh device locked at its maximum clock.
	atMax := func(spec gpusim.Spec, k gpusim.KernelDesc) float64 {
		d := gpusim.NewDevice(spec, 0)
		if _, err := d.SetApplicationClocks(0, spec.MaxSMClockMHz); err != nil {
			t.Fatal(err)
		}
		return d.Execute(k)
	}
	meRatio := atMax(amd, me.Kernel(150e6, 150, gpusim.AMD)) / atMax(nv, me.Kernel(150e6, 150, gpusim.Nvidia))
	xmRatio := atMax(amd, xm.Kernel(150e6, 150, gpusim.AMD)) / atMax(nv, xm.Kernel(150e6, 150, gpusim.Nvidia))
	if meRatio <= xmRatio {
		t.Errorf("ME AMD/Nvidia slowdown %v should exceed XMass slowdown %v", meRatio, xmRatio)
	}
}

func TestBetaOrdering(t *testing.T) {
	// MomentumEnergy and IAD are the frequency-sensitive kernels; the
	// light bookkeeping kernels are nearly insensitive (the basis of both
	// Fig. 2 and ManDyn's win).
	spec := gpusim.A100PCIE40GB()
	betas := map[string]float64{}
	for _, f := range TurbulencePipeline() {
		betas[f.Name] = f.Kernel(particles450, 150, gpusim.Nvidia).FrequencySensitivity(spec)
	}
	if betas[FnMomentum] < 0.45 {
		t.Errorf("MomentumEnergy beta %v, want >= 0.45", betas[FnMomentum])
	}
	if betas[FnIAD] < 0.45 {
		t.Errorf("IAD beta %v, want >= 0.45", betas[FnIAD])
	}
	for _, light := range []string{FnEOS, FnAVSwitches, FnUpdate, FnTimestep, FnDomainDecomp} {
		if betas[light] > 0.25 {
			t.Errorf("%s beta %v, want <= 0.25 (light kernel)", light, betas[light])
		}
	}
	if betas[FnMomentum] <= betas[FnXMass] {
		t.Error("MomentumEnergy must be more frequency-sensitive than XMass")
	}
}

const particles450 = 450 * 450 * 450

func TestLaunchPattern(t *testing.T) {
	for _, f := range TurbulencePipeline() {
		if f.Name == FnDomainDecomp && f.Launches < 16 {
			t.Error("DomainDecompAndSync should be a many-launch phase (Fig. 9)")
		}
	}
}

func TestHostUtilizationRanges(t *testing.T) {
	for _, f := range EvrardPipeline() {
		if f.CPUUtil < 0 || f.CPUUtil > 1 || f.MemUtil < 0 || f.MemUtil > 1 {
			t.Errorf("%s: host utilization out of range", f.Name)
		}
		if f.EffNvidia <= 0 || f.EffNvidia > 1 || f.EffAMD <= 0 || f.EffAMD > 1 {
			t.Errorf("%s: efficiency out of range", f.Name)
		}
	}
}
