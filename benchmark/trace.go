package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Parent is the index of
// the span that caused it (-1 for a root); Op is the measured operation
// (step, experiment, run) all spans of one operation share.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
}

func (s span) durMs() float64 { return float64(s.EndNs-s.StartNs) / 1e6 }

// recorder keeps spans in a preallocated slice and writes them out when the
// run ends. A nil *recorder is the tracing-off path: every method is a
// no-op, so workloads call it unconditionally.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int // stack of spans begun and not yet ended
	op    int
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// setOp names the operation subsequent spans belong to.
func (r *recorder) setOp(op int) {
	if r != nil {
		r.op = op
	}
}

// begin opens a span whose parent is the innermost open span.
func (r *recorder) begin(name, layer string) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Layer: layer, StartNs: r.now(), Parent: r.top(), Op: r.op})
	r.open = append(r.open, len(r.spans)-1)
	return len(r.spans) - 1
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	r.spans[id].EndNs = r.now()
	r.open = r.open[:len(r.open)-1]
}

// add records a span that ended just now and lasted the given seconds —
// the shape a post-hoc timing callback delivers.
func (r *recorder) add(name, layer string, seconds float64) int {
	if r == nil {
		return -1
	}
	end := r.now()
	r.spans = append(r.spans, span{Name: name, Layer: layer,
		StartNs: end - int64(seconds*1e9), EndNs: end, Parent: r.top(), Op: r.op})
	return len(r.spans) - 1
}

func (r *recorder) top() int {
	if len(r.open) == 0 {
		return -1
	}
	return r.open[len(r.open)-1]
}

// timed runs fn inside a span and passes its error through.
func (r *recorder) timed(name, layer string, fn func() error) error {
	id := r.begin(name, layer)
	err := fn()
	r.end(id)
	return err
}

// selfNs returns each span's self time: its duration minus the part of its
// interval that its child spans cover (children clipped to the parent,
// overlapping children counted once).
func selfNs(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNs < spans[kids[b]].StartNs })
		covered, edge := int64(0), s.StartNs
		for _, k := range kids {
			lo, hi := spans[k].StartNs, spans[k].EndNs
			if lo < edge {
				lo = edge
			}
			if hi > s.EndNs {
				hi = s.EndNs
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNs - s.StartNs - covered
	}
	return self
}

// meanMs is the mean duration in ms of the spans selected by keep, per
// denom (ops in the window); 0 when denom is 0.
func meanMs(spans []span, denom int, keep func(span) bool) float64 {
	if denom == 0 {
		return 0
	}
	total := 0.0
	for _, s := range spans {
		if keep(s) {
			total += s.durMs()
		}
	}
	return total / float64(denom)
}

func named(name string) func(span) bool {
	return func(s span) bool { return s.Name == name }
}

type traceFile struct {
	Workload string `json:"workload"`
	Spans    []span `json:"spans"`
}

func writeTrace(path, workload string, spans []span) error {
	data, err := json.Marshal(traceFile{Workload: workload, Spans: spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
