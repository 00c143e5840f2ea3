package sampler

import (
	"testing"

	"sphenergy/internal/gpusim"
	"sphenergy/internal/nvml"
	"sphenergy/internal/pmt"
)

// BenchmarkTick is the sampler's ruler: a rank channel polling the NVML
// sensor of a simulated A100 that idles six or seven periods between polls
// — a run of the model emits 6.6 ticks a poll — and lets go of its ticks
// every 20 polls but the last few, as the attribution join does at a step
// boundary. It reports the cost of a poll per tick emitted (ns/tick) and,
// with the ring cycling through its blocks, B/op near 0.
func BenchmarkTick(b *testing.B) {
	dev := gpusim.NewDevice(gpusim.A100SXM480GB(), 0)
	lib, err := nvml.New([]*gpusim.Device{dev})
	if err == nil {
		err = lib.Init()
	}
	if err != nil {
		b.Fatal(err)
	}
	handle, err := lib.DeviceGetHandleByIndex(0)
	if err != nil {
		b.Fatal(err)
	}
	ch := New(Config{GPUHz: DefaultGPUHz}).AddRank(0, pmt.NewNVML(handle))
	ch.Poll()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.Idle(ch.periodS * float64(6+i%2))
		ch.Poll()
		if i%20 == 19 {
			ch.Release(ch.tick - 4)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(ch.Stats().Ticks), "ns/tick")
}
