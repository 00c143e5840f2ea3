package gpusim

// TracePoint is one sample of the device's frequency/power trajectory.
type TracePoint struct {
	TimeS    float64
	ClockMHz int
	PowerW   float64
	Kernel   string // kernel or event label, empty for idle samples
}

// PointSink receives trace points as they are recorded, so a telemetry
// tracer can mirror the trace. Sinks must not call back into the Trace.
type PointSink func(TracePoint)

// Trace records the frequency and power trajectory of a device, the data
// behind the paper's Fig. 9 DVFS measurement. Device virtual time is
// monotonic, so points arrive in nondecreasing TimeS order. A trace belongs
// to the goroutine that drives its device, as the device does.
type Trace struct {
	points []TracePoint
	sink   PointSink
}

// NewTrace creates an empty trace.
func NewTrace() *Trace { return &Trace{} }

// SetSink installs a live forwarding sink; nil removes it. Each point added
// after this call is passed to the sink.
func (t *Trace) SetSink(s PointSink) { t.sink = s }

// Add appends a sample and forwards it to the sink, if any.
func (t *Trace) Add(p TracePoint) {
	t.points = append(t.points, p)
	if t.sink != nil {
		t.sink(p)
	}
}

// Points returns a copy of the recorded samples in time order.
func (t *Trace) Points() []TracePoint {
	out := make([]TracePoint, len(t.points))
	copy(out, t.points)
	return out
}

// Len returns the number of samples.
func (t *Trace) Len() int { return len(t.points) }

// MinMaxClock returns the lowest and highest clocks observed, 0,0 if empty.
func (t *Trace) MinMaxClock() (min, max int) {
	if len(t.points) == 0 {
		return 0, 0
	}
	min, max = t.points[0].ClockMHz, t.points[0].ClockMHz
	for _, p := range t.points[1:] {
		if p.ClockMHz < min {
			min = p.ClockMHz
		}
		if p.ClockMHz > max {
			max = p.ClockMHz
		}
	}
	return
}

// ClockOfKernel returns the mean clock over samples labeled with the kernel
// name, and whether any such samples exist.
func (t *Trace) ClockOfKernel(name string) (float64, bool) {
	sum, n := 0.0, 0
	for _, p := range t.points {
		if p.Kernel == name {
			sum += float64(p.ClockMHz)
			n++
		}
	}
	if n == 0 {
		return 0, false
	}
	return sum / float64(n), true
}
