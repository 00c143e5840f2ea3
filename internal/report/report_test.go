package report

import (
	"math"
	"strings"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/instr"
)

func sampleReport() *instr.Report {
	r := &instr.Report{
		Simulation: "turbulence", System: "LUMI-G", WallTimeS: 100,
		GPUEnergyJ: 7500, CPUEnergyJ: 1000, MemEnergyJ: 500, OtherEnergyJ: 1000,
	}
	r.TotalEnergyJ = 10000
	p := instr.NewRankProfile(0)
	p.RecordAt(0, "MomentumEnergy", 40, 4000, 400, 200, 400, 0)
	p.RecordAt(0, "XMass", 20, 2000, 300, 150, 300, 0)
	p.RecordAt(0, "EOS", 5, 1500, 300, 150, 300, 0)
	r.Ranks = append(r.Ranks, p)
	return r
}

func TestDeviceBreakdownLUMISeparatesMemory(t *testing.T) {
	d := NewDeviceBreakdown(sampleReport(), cluster.LUMIG(), "Turb")
	if !d.MemorySeparate {
		t.Fatal("LUMI-G should meter memory separately")
	}
	if d.MemJ != 500 || d.OtherJ != 1000 {
		t.Errorf("mem %v other %v", d.MemJ, d.OtherJ)
	}
	if math.Abs(d.TotalJ()-10000) > 1e-9 {
		t.Errorf("total %v", d.TotalJ())
	}
	if math.Abs(d.GPUJ/d.TotalJ()-0.75) > 1e-9 {
		t.Errorf("GPU share %v", d.GPUJ/d.TotalJ())
	}
}

func TestDeviceBreakdownCSCSFoldsMemoryIntoOther(t *testing.T) {
	d := NewDeviceBreakdown(sampleReport(), cluster.CSCSA100(), "Turb")
	if d.MemorySeparate {
		t.Fatal("CSCS-A100 has no separate memory metering")
	}
	if d.MemJ != 0 {
		t.Error("memory should be folded")
	}
	if d.OtherJ != 1500 {
		t.Errorf("other %v, want mem+other = 1500", d.OtherJ)
	}
	if math.Abs(d.TotalJ()-10000) > 1e-9 {
		t.Error("folding changed the total")
	}
}

func TestDeviceBreakdownRender(t *testing.T) {
	d := NewDeviceBreakdown(sampleReport(), cluster.LUMIG(), "Turb")
	out := d.Render()
	for _, want := range []string{"GPU", "CPU", "Memory", "Other", "75.00%"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestFunctionBreakdownShares(t *testing.T) {
	fb := NewFunctionBreakdown(sampleReport(), "Turb")
	if len(fb.Functions) != 3 {
		t.Fatalf("%d functions", len(fb.Functions))
	}
	var total float64
	for _, f := range fb.Functions {
		total += f.GPUShare
		if f.Name == "MomentumEnergy" && math.Abs(f.GPUShare-4000.0/7500) > 1e-9 {
			t.Errorf("ME share %v", f.GPUShare)
		}
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("shares sum to %v", total)
	}
}

func TestTopConsumers(t *testing.T) {
	fb := NewFunctionBreakdown(sampleReport(), "Turb")
	top := fb.TopConsumers(2)
	if len(top) != 2 || top[0] != "MomentumEnergy" || top[1] != "XMass" {
		t.Errorf("top = %v", top)
	}
	all := fb.TopConsumers(10)
	if len(all) != 3 {
		t.Errorf("TopConsumers over-requested: %v", all)
	}
}

func TestNormalize(t *testing.T) {
	n := Normalize("mandyn", 103, 92, 100, 100)
	if math.Abs(n.TimeRatio-1.03) > 1e-12 {
		t.Errorf("time %v", n.TimeRatio)
	}
	if math.Abs(n.EnergyRatio-0.92) > 1e-12 {
		t.Errorf("energy %v", n.EnergyRatio)
	}
	if math.Abs(n.EDPRatio-1.03*0.92) > 1e-12 {
		t.Errorf("edp %v", n.EDPRatio)
	}
	zero := Normalize("x", 1, 1, 0, 0)
	if zero.TimeRatio != 0 || zero.EDPRatio != 0 {
		t.Error("zero baseline should yield zero ratios, not Inf")
	}
}

func TestRenderNormalizedTable(t *testing.T) {
	rows := []Normalized{{Name: "static-1005", TimeRatio: 1.16, EnergyRatio: 0.83, EDPRatio: 0.96}}
	out := RenderNormalizedTable("title", rows)
	if !strings.Contains(out, "title") || !strings.Contains(out, "static-1005") ||
		!strings.Contains(out, "1.1600") {
		t.Errorf("table:\n%s", out)
	}
}

func TestWeakScaling(t *testing.T) {
	ws := WeakScaling(
		[]int{8, 16, 32},
		[]float64{100, 102, 105},
		[]float64{800, 1640, 3400},
	)
	if len(ws) != 3 {
		t.Fatalf("%d points", len(ws))
	}
	if ws[0].Efficiency != 1 {
		t.Errorf("reference efficiency %v", ws[0].Efficiency)
	}
	if math.Abs(ws[2].Efficiency-100.0/105) > 1e-12 {
		t.Errorf("efficiency at 32 = %v", ws[2].Efficiency)
	}
	if math.Abs(ws[1].EnergyPerRank-102.5) > 1e-12 {
		t.Errorf("energy/rank at 16 = %v", ws[1].EnergyPerRank)
	}
	// Mismatched inputs yield nil.
	if WeakScaling([]int{1}, []float64{1, 2}, []float64{1}) != nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestFunctionBreakdownRender(t *testing.T) {
	fb := NewFunctionBreakdown(sampleReport(), "Turb")
	out := fb.Render()
	if !strings.Contains(out, "MomentumEnergy") || !strings.Contains(out, "% of GPU energy") {
		t.Errorf("render:\n%s", out)
	}
}
