package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"sphenergy/internal/atomicio"
)

// Label is one metric dimension (e.g. rank="3", kernel="momentumEnergy").
type Label struct {
	Name, Value string
}

// L builds a label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Counter is a monotonically increasing metric. A nil *Counter is a valid
// no-op. Updates are a single atomic CAS — safe and cheap from any
// goroutine.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter; negative deltas are ignored (counters are
// monotonic by contract).
func (c *Counter) Add(v float64) {
	if c == nil || v < 0 {
		return
	}
	atomicAdd(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a metric that can go up and down (current clock, queue depth).
// A nil *Gauge is a valid no-op.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores the gauge value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add shifts the gauge by v.
func (g *Gauge) Add(v float64) {
	if g == nil {
		return
	}
	atomicAdd(&g.bits, v)
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// atomicAdd CAS-adds a float64 delta onto bits.
func atomicAdd(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram is a fixed-bucket distribution. Buckets are cumulative
// upper-bound counts in Prometheus style; an implicit +Inf bucket catches
// everything. A nil *Histogram is a valid no-op.
//
// The record path is lock-free and allocation-free: one inlined binary
// search over the (immutable) upper bounds plus three atomic updates, so
// per-pass latency recording can sit inside hot loops without perturbing
// what it measures. Readers (scrapes, quantiles) see each observation's
// bucket count, sum and total settle independently — a scrape racing a
// recorder may be off by the in-flight observation, which fixed-rate
// scraping tolerates by construction.
type Histogram struct {
	upper  []float64       // sorted upper bounds, exclusive of +Inf
	counts []atomic.Uint64 // len(upper)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits, CAS-accumulated
	total  atomic.Uint64
}

// newHistogram builds a histogram over sorted upper bounds.
func newHistogram(buckets []float64) *Histogram {
	up := append([]float64(nil), buckets...)
	sort.Float64s(up)
	return &Histogram{upper: up, counts: make([]atomic.Uint64, len(up)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// First bucket with upper >= v; len(upper) is the +Inf bucket.
	lo, hi := 0, len(h.upper)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.upper[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	atomicAdd(&h.sum, v)
	h.total.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.total.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// snapshot copies the histogram state (cumulative bucket counts). The
// reported total is the sum of the bucket counts, so bucket lines and the
// _count line stay mutually consistent even when a scrape races recorders.
func (h *Histogram) snapshot() (upper []float64, cumulative []uint64, sum float64, total uint64) {
	upper = h.upper
	cumulative = make([]uint64, len(h.counts))
	running := uint64(0)
	for i := range h.counts {
		running += h.counts[i].Load()
		cumulative[i] = running
	}
	return upper, cumulative, math.Float64frombits(h.sum.Load()), cumulative[len(cumulative)-1]
}

// Quantile estimates the q-th quantile (0 < q < 1) from the bucket counts
// by linear interpolation inside the holding bucket — the same estimator
// Prometheus' histogram_quantile applies server-side. The first bucket
// interpolates from zero (or from its upper bound when that is negative),
// and samples in the +Inf bucket clamp to the highest finite bound.
//
// Every input has a defined, finite result — never NaN: a nil or empty
// histogram (and a NaN q) reports 0, matching Count() == 0, so quantile
// values always survive JSON encoding (encoding/json rejects NaN) and never
// poison downstream arithmetic.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	upper, cum, _, total := h.snapshot()
	return bucketQuantile(q, upper, cum, total)
}

// bucketQuantile interpolates a quantile from cumulative bucket counts.
func bucketQuantile(q float64, upper []float64, cum []uint64, total uint64) float64 {
	if total == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	i := 0
	for i < len(upper) && float64(cum[i]) < rank {
		i++
	}
	if i >= len(upper) {
		// +Inf bucket: no finite upper bound to interpolate toward.
		if len(upper) == 0 {
			return 0
		}
		return upper[len(upper)-1]
	}
	lower := 0.0
	var below uint64
	if i > 0 {
		lower = upper[i-1]
		below = cum[i-1]
	} else if upper[0] <= 0 {
		lower = upper[0]
	}
	inBucket := cum[i] - below
	if inBucket == 0 {
		return upper[i]
	}
	frac := (rank - float64(below)) / float64(inBucket)
	if frac < 0 {
		frac = 0
	} else if frac > 1 {
		frac = 1
	}
	return lower + (upper[i]-lower)*frac
}

// exposedQuantiles are the quantiles rendered into both exposition formats
// for every histogram family (the tails tuning decisions read).
var exposedQuantiles = []float64{0.5, 0.95, 0.99}

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}

// ExpBuckets returns n upper bounds start, start*factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LogBuckets returns log-spaced upper bounds from min to max (inclusive)
// with perDecade buckets per factor-of-ten — the fixed layout latency
// histograms use so quantile resolution is a constant relative error
// (~1/perDecade of a decade) across the whole range.
func LogBuckets(min, max float64, perDecade int) []float64 {
	if min <= 0 || max <= min || perDecade < 1 {
		return []float64{min, max}
	}
	step := math.Pow(10, 1/float64(perDecade))
	var out []float64
	for v := min; v < max*(1-1e-12); v *= step {
		out = append(out, v)
	}
	return append(out, max)
}

// LatencyBuckets is the standard wall-clock latency layout: 100 ns to 10 s,
// four buckets per decade (≤ ~78% relative quantile error per bucket).
func LatencyBuckets() []float64 { return LogBuckets(1e-7, 10, 4) }

// metricKind tags a family's type for exposition.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// child is one labeled instance within a family.
type child struct {
	labels []Label
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family groups all label combinations of one metric name.
type family struct {
	name     string
	help     string
	kind     metricKind
	buckets  []float64
	children map[string]*child
	order    []*child // children in insertion order
}

// Registry holds the run's metric families. A nil *Registry is a valid
// no-op: lookups return nil metrics, whose methods are themselves no-ops.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
	ord  []string
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// Counter registers (or fetches) a counter with the given labels.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	ch := r.child(name, help, kindCounter, nil, labels)
	return ch.c
}

// Gauge registers (or fetches) a gauge with the given labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	ch := r.child(name, help, kindGauge, nil, labels)
	return ch.g
}

// Histogram registers (or fetches) a fixed-bucket histogram. The bucket
// list is set by the first registration of the name; later calls reuse it.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	ch := r.child(name, help, kindHistogram, buckets, labels)
	return ch.h
}

// child resolves a (name, labels) pair, creating family and instance on
// first use. Registering one name as two different kinds is a programming
// error and panics.
func (r *Registry) child(name, help string, kind metricKind, buckets []float64, labels []Label) *child {
	key := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets,
			children: map[string]*child{}}
		r.fams[name] = f
		r.ord = append(r.ord, name)
	} else if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %q registered as %s and %s", name, f.kind, kind))
	}
	ch, ok := f.children[key]
	if !ok {
		ch = &child{labels: append([]Label(nil), labels...)}
		switch kind {
		case kindCounter:
			ch.c = &Counter{}
		case kindGauge:
			ch.g = &Gauge{}
		case kindHistogram:
			ch.h = newHistogram(f.buckets)
		}
		f.children[key] = ch
		f.order = append(f.order, ch)
	}
	return ch
}

// labelKey serializes a label set into a stable map key.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(a, b int) bool { return ls[a].Name < ls[b].Name })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String()
}

// familySnapshot is one family and the children it had when the snapshot
// was taken. A family's name, help, kind and buckets and a child's labels
// and metric never change once created; the child list and map do, under
// the registry lock, so rendering reads the copy.
type familySnapshot struct {
	*family
	members []*child
}

// snapshotFamilies copies the family list, and each family's child list,
// under the registry lock so exposition can render without holding it
// while a first-use label registers concurrently.
func (r *Registry) snapshotFamilies() []familySnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]familySnapshot, 0, len(r.ord))
	for _, n := range r.ord {
		f := r.fams[n]
		out = append(out, familySnapshot{family: f, members: slices.Clone(f.order)})
	}
	return out
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE headers followed by one line per
// labeled sample, histograms as cumulative _bucket/_sum/_count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	for _, f := range r.snapshotFamilies() {
		if f.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, ch := range f.members {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(ch.labels), fmtFloat(ch.c.Value()))
			case kindGauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.name, renderLabels(ch.labels), fmtFloat(ch.g.Value()))
			case kindHistogram:
				upper, cum, sum, total := ch.h.snapshot()
				for i, u := range upper {
					le := append(append([]Label(nil), ch.labels...), L("le", fmtFloat(u)))
					fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, renderLabels(le), cum[i])
				}
				inf := append(append([]Label(nil), ch.labels...), L("le", "+Inf"))
				fmt.Fprintf(&b, "%s_bucket%s %d\n", f.name, renderLabels(inf), total)
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, renderLabels(ch.labels), fmtFloat(sum))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, renderLabels(ch.labels), total)
				if total > 0 {
					// Pre-computed p50/p95/p99 as a sibling gauge family in
					// summary style, so scrapers without histogram_quantile
					// (and the JSON twin's consumers) read the same tails.
					for _, q := range exposedQuantiles {
						ql := append(append([]Label(nil), ch.labels...), L("quantile", fmtFloat(q)))
						fmt.Fprintf(&b, "%s_quantile%s %s\n", f.name, renderLabels(ql),
							fmtFloat(bucketQuantile(q, upper, cum, total)))
					}
				}
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// renderLabels renders {a="x",b="y"}, or "" for an empty set.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func fmtFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// SampleSnapshot is one labeled value in a JSON metrics snapshot.
type SampleSnapshot struct {
	Labels map[string]string `json:"labels,omitempty"`
	Value  float64           `json:"value"`
	// Histogram-only fields. Quantiles holds the estimated p50/p95/p99
	// keyed by quantile ("0.5", "0.95", "0.99").
	Sum       float64            `json:"sum,omitempty"`
	Count     uint64             `json:"count,omitempty"`
	Buckets   map[string]uint64  `json:"buckets,omitempty"`
	Quantiles map[string]float64 `json:"quantiles,omitempty"`
}

// MetricSnapshot is one family in a JSON metrics snapshot.
type MetricSnapshot struct {
	Name    string           `json:"name"`
	Type    string           `json:"type"`
	Help    string           `json:"help,omitempty"`
	Samples []SampleSnapshot `json:"samples"`
}

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() []MetricSnapshot {
	if r == nil {
		return nil
	}
	var out []MetricSnapshot
	for _, f := range r.snapshotFamilies() {
		ms := MetricSnapshot{Name: f.name, Type: f.kind.String(), Help: f.help}
		for _, ch := range f.members {
			s := SampleSnapshot{}
			if len(ch.labels) > 0 {
				s.Labels = map[string]string{}
				for _, l := range ch.labels {
					s.Labels[l.Name] = l.Value
				}
			}
			switch f.kind {
			case kindCounter:
				s.Value = ch.c.Value()
			case kindGauge:
				s.Value = ch.g.Value()
			case kindHistogram:
				upper, cum, sum, total := ch.h.snapshot()
				s.Sum, s.Count = sum, total
				s.Buckets = map[string]uint64{}
				for i, u := range upper {
					s.Buckets[fmtFloat(u)] = cum[i]
				}
				s.Buckets["+Inf"] = total
				s.Value = sum
				if total > 0 {
					s.Quantiles = map[string]float64{}
					for _, q := range exposedQuantiles {
						s.Quantiles[fmtFloat(q)] = bucketQuantile(q, upper, cum, total)
					}
				}
			}
			ms.Samples = append(ms.Samples, s)
		}
		out = append(out, ms)
	}
	return out
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{"metrics": r.Snapshot()})
}

// WriteFile writes the JSON snapshot to path, atomically: a crash or kill
// mid-write never leaves a truncated snapshot behind.
func (r *Registry) WriteFile(path string) error {
	if err := atomicio.WriteFile(path, r.WriteJSON); err != nil {
		return fmt.Errorf("telemetry: write metrics: %w", err)
	}
	return nil
}
