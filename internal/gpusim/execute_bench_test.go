package gpusim_test

import (
	"testing"

	"sphenergy/internal/core"
	"sphenergy/internal/gpusim"
)

// BenchmarkExecute times one launch (Device.Launch, as core.Run makes it)
// on a CSCS-A100 device, in ns/launch, rotating through the Turbulence
// pipeline's kernels at 10e6 particles: locked at the maximum clock (the
// paper's baseline: every launch prices the clock it priced before), under
// the DVFS governor, and locked under a 250 W cap that derates the heavier
// kernels below the application clock.
func BenchmarkExecute(b *testing.B) {
	spec := gpusim.A100SXM480GB()
	var kernels []gpusim.KernelDesc
	for _, fn := range core.TurbulencePipeline() {
		kernels = append(kernels, fn.Kernel(10e6, 150, spec.Vendor))
	}
	for _, mode := range []struct {
		name  string
		setup func(*gpusim.Device) error
	}{
		{"locked", func(d *gpusim.Device) error {
			_, err := d.SetApplicationClocks(0, spec.MaxSMClockMHz)
			return err
		}},
		{"auto", func(*gpusim.Device) error { return nil }},
		{"capped", func(d *gpusim.Device) error {
			if _, err := d.SetApplicationClocks(0, spec.MaxSMClockMHz); err != nil {
				return err
			}
			return d.SetPowerLimit(250)
		}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			d := gpusim.NewDevice(spec, 0)
			if err := mode.setup(d); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Launch(&kernels[i%len(kernels)])
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/launch")
		})
	}
}
