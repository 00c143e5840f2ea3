package gpusim

import "sync"

// TracePoint is one sample of the device's frequency/power trajectory.
type TracePoint struct {
	TimeS    float64
	ClockMHz int
	PowerW   float64
	Kernel   string // kernel or event label, empty for idle samples
}

// PointSink receives trace points as they are recorded — the shared-sink
// path that lets a telemetry tracer mirror the trace without a second lock
// acquisition inside the trace (the sink runs after the trace releases its
// own mutex). Sinks must not call back into the Trace.
type PointSink func(TracePoint)

// Trace records the frequency and power trajectory of a device, the data
// behind the paper's Fig. 9 DVFS measurement. Device virtual time is
// monotonic, so points arrive in nondecreasing TimeS order.
type Trace struct {
	mu     sync.Mutex
	points []TracePoint
	sink   PointSink
}

// NewTrace creates an empty trace.
func NewTrace() *Trace { return &Trace{} }

// SetSink installs a live forwarding sink; nil removes it. Each point added
// after this call is passed to the sink outside the trace's lock.
func (t *Trace) SetSink(s PointSink) {
	t.mu.Lock()
	t.sink = s
	t.mu.Unlock()
}

// Add appends a sample and forwards it to the sink, if any.
func (t *Trace) Add(p TracePoint) {
	t.mu.Lock()
	t.points = append(t.points, p)
	sink := t.sink
	t.mu.Unlock()
	if sink != nil {
		sink(p)
	}
}

// Points returns a copy of the recorded samples in time order.
func (t *Trace) Points() []TracePoint {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TracePoint, len(t.points))
	copy(out, t.points)
	return out
}

// Len returns the number of samples.
func (t *Trace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.points)
}

// MinMaxClock returns the lowest and highest clocks observed, 0,0 if empty.
func (t *Trace) MinMaxClock() (min, max int) {
	t.mu.Lock()
	defer t.mu.Unlock()
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
	t.mu.Lock()
	defer t.mu.Unlock()
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
