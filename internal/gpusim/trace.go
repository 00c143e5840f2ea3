package gpusim

// TracePoint is one sample of the device's frequency/power trajectory.
type TracePoint struct {
	TimeS    float64
	ClockMHz int
	PowerW   float64
	Kernel   string // kernel or event label, empty for idle samples
}

// PointSink receives a device's trace points as they happen: one per
// accounted interval and one per application-clock operation, in
// nondecreasing TimeS order, on the goroutine that drives the device. The
// sink's owner keeps what it reads; the device keeps nothing.
type PointSink func(TracePoint)
