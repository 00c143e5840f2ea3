package telemetry

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("kernel_launches_total", "help")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	g := r.Gauge("gpu_clock_mhz", "help")
	g.Set(1410)
	if g.Value() != 0 {
		t.Error("nil gauge stored")
	}
	h := r.Histogram("step_energy_j", "help", LinearBuckets(1, 1, 3))
	h.Observe(2)
	if h.Count() != 0 {
		t.Error("nil histogram observed")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("kernel_launches_total", "kernels launched")
	c.Inc()
	c.Add(2.5)
	c.Add(-1) // ignored: counters are monotonic
	if c.Value() != 3.5 {
		t.Errorf("counter = %v, want 3.5", c.Value())
	}
	// Same name+labels returns the same instance.
	if r.Counter("kernel_launches_total", "kernels launched") != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("gpu_clock_mhz", "clock", L("rank", "0"))
	g.Set(1410)
	g.Set(1005)
	if g.Value() != 1005 {
		t.Errorf("gauge = %v", g.Value())
	}
	// Different labels → different instance.
	g2 := r.Gauge("gpu_clock_mhz", "clock", L("rank", "1"))
	if g2 == g {
		t.Error("label sets share an instance")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("freq_switch_latency_s", "latency", []float64{0.001, 0.01, 0.1})
	for _, v := range []float64{0.0005, 0.001, 0.05, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	upper, cum, sum, total := h.snapshot()
	if len(upper) != 3 || total != 4 {
		t.Fatalf("snapshot upper=%v total=%d", upper, total)
	}
	// le=0.001 catches 0.0005 and 0.001 (le semantics), le=0.01 adds none,
	// le=0.1 adds 0.05; 5 lands in +Inf only.
	if cum[0] != 2 || cum[1] != 2 || cum[2] != 3 {
		t.Errorf("cumulative = %v", cum)
	}
	if sum != 0.0005+0.001+0.05+5 {
		t.Errorf("sum = %v", sum)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("steps_total", "completed steps").Add(100)
	r.Gauge("gpu_clock_mhz", "current clock", L("rank", "0")).Set(1005)
	h := r.Histogram("step_time_s", "step duration", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(30)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# HELP steps_total completed steps",
		"# TYPE steps_total counter",
		"steps_total 100",
		"# TYPE gpu_clock_mhz gauge",
		`gpu_clock_mhz{rank="0"} 1005`,
		"# TYPE step_time_s histogram",
		`step_time_s_bucket{le="1"} 1`,
		`step_time_s_bucket{le="10"} 2`,
		`step_time_s_bucket{le="+Inf"} 3`,
		"step_time_s_sum 33.5",
		"step_time_s_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q in:\n%s", want, text)
		}
	}
}

func TestJSONSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("steps_total", "steps").Add(7)
	r.Histogram("step_energy_j", "energy", []float64{10, 100}).Observe(42)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []MetricSnapshot `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid snapshot JSON: %v", err)
	}
	if len(doc.Metrics) != 2 {
		t.Fatalf("got %d families", len(doc.Metrics))
	}
	if doc.Metrics[0].Name != "steps_total" || doc.Metrics[0].Samples[0].Value != 7 {
		t.Errorf("counter snapshot = %+v", doc.Metrics[0])
	}
	hist := doc.Metrics[1]
	if hist.Type != "histogram" || hist.Samples[0].Count != 1 || hist.Samples[0].Buckets["100"] != 1 {
		t.Errorf("histogram snapshot = %+v", hist)
	}
}

func TestServeMetrics(t *testing.T) {
	r := NewRegistry()
	r.Counter("kernel_launches_total", "launches").Add(12)
	srv, err := ServeMetrics("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "kernel_launches_total 12") {
		t.Errorf("/metrics body:\n%s", body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}

	resp, err = http.Get("http://" + srv.Addr + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Errorf("/metrics.json invalid: %v", err)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 10, 4)
	if exp[0] != 1 || exp[3] != 1000 {
		t.Errorf("ExpBuckets = %v", exp)
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("kind conflict did not panic")
		}
	}()
	r.Gauge("x_total", "")
}

// LinearBuckets returns n upper bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + float64(i)*width
	}
	return out
}
