package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestHistogramQuantiles(t *testing.T) {
	h := NewRegistry().Histogram("lat_s", "", LinearBuckets(10, 10, 10)) // 10..100
	// Uniform 1..100: pN should land near N (linear interpolation inside
	// 10-wide buckets is exact for uniform data).
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 50}, {0.95, 95}, {0.99, 99},
	} {
		got := h.Quantile(tc.q)
		if math.Abs(got-tc.want) > 1 {
			t.Errorf("Quantile(%v) = %v, want ~%v", tc.q, got, tc.want)
		}
	}
}

// TestHistogramQuantileEdgeCases pins the degenerate inputs to defined,
// finite values: empty, nil, NaN-q, single-observation and all-in-overflow
// histograms must never produce NaN (which would fail JSON encoding) or
// panic.
func TestHistogramQuantileEdgeCases(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
	if got := h.Quantile(math.NaN()); got != 0 {
		t.Errorf("NaN-q quantile = %v, want 0", got)
	}
	h.Observe(500) // +Inf bucket only
	if got := h.Quantile(0.5); got != 10 {
		t.Errorf("all-overflow quantile = %v, want clamp to highest bound 10", got)
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %v, want 0", got)
	}

	// A single observation: every quantile lands in its bucket, finite.
	one := newHistogram([]float64{1, 10})
	one.Observe(5)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		got := one.Quantile(q)
		if math.IsNaN(got) || got < 1 || got > 10 {
			t.Errorf("single-observation Quantile(%v) = %v, want within (1,10]", q, got)
		}
	}

	// No finite buckets at all: defined, not NaN.
	if got := bucketQuantile(0.5, nil, []uint64{3}, 3); got != 0 {
		t.Errorf("bucketless quantile = %v, want 0", got)
	}
}

// TestEmptyHistogramSurvivesJSON is the regression the edge cases guard: a
// registry holding a never-observed histogram must still marshal (NaN
// quantiles would make encoding/json error out).
func TestEmptyHistogramSurvivesJSON(t *testing.T) {
	r := NewRegistry()
	r.Histogram("never_observed_s", "", LinearBuckets(10, 10, 3))
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("empty histogram broke the JSON snapshot: %v", err)
	}
	if !strings.Contains(buf.String(), "never_observed_s") {
		t.Error("empty histogram missing from the snapshot")
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	h := NewRegistry().Histogram("lat_s", "", LatencyBuckets())
	allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(3.5e-4)
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %.1f objects/op, want 0", allocs)
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1e-6, 1, 4)
	if b[0] != 1e-6 || b[len(b)-1] != 1 {
		t.Errorf("LogBuckets endpoints = %v, %v", b[0], b[len(b)-1])
	}
	if len(b) != 25 { // 6 decades * 4 + final bound
		t.Errorf("LogBuckets len = %d, want 25 (%v)", len(b), b)
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("LogBuckets not increasing at %d: %v", i, b)
		}
	}
	if got := LogBuckets(0, 1, 4); len(got) != 2 {
		t.Errorf("degenerate LogBuckets = %v", got)
	}
}

func TestHistogramExpositionQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("pass_s", "pass latency", LinearBuckets(10, 10, 10), L("pass", "momentum_energy"))
	for v := 1; v <= 100; v++ {
		h.Observe(float64(v))
	}

	_, s, ok := findSample(r.Snapshot(), "pass_s", "pass", "momentum_energy")
	if want := map[string]float64{"0.5": 50, "0.95": 95, "0.99": 99}; !ok || !reflect.DeepEqual(s.Quantiles, want) {
		t.Errorf("snapshot quantiles = %v, want exactly %v", s.Quantiles, want)
	}

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics []MetricSnapshot `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	qs := doc.Metrics[0].Samples[0].Quantiles
	if qs == nil {
		t.Fatalf("JSON snapshot has no quantiles: %+v", doc.Metrics[0].Samples[0])
	}
	for q, want := range map[string]float64{"0.5": 50, "0.95": 95, "0.99": 99} {
		if math.Abs(qs[q]-want) > 1 {
			t.Errorf("JSON quantile %s = %v, want ~%v", q, qs[q], want)
		}
	}
}

// TestHistogramConcurrentRecordScrape hammers one histogram from parallel
// recorders while a reader loops over the snapshot and its JSON — run under
// -race this is the lock-free record path's safety proof, and the final
// counts must be exact (atomic adds lose nothing).
func TestHistogramConcurrentRecordScrape(t *testing.T) {
	const (
		writers = 8
		perW    = 5000
	)
	r := NewRegistry()
	h := r.Histogram("conc_s", "", LatencyBuckets())

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			var buf bytes.Buffer
			_ = r.WriteJSON(&buf)
			_ = r.Snapshot()
			h.Quantile(0.95)
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				h.Observe(1e-6 * float64(w*perW+i%997))
			}
		}(w)
	}
	wg.Wait()
	<-done

	if got := h.Count(); got != writers*perW {
		t.Errorf("lost observations: count = %d, want %d", got, writers*perW)
	}
	_, cum, _, total := h.snapshot()
	if total != writers*perW || cum[len(cum)-1] != writers*perW {
		t.Errorf("bucket totals inconsistent: total=%d cum=%d", total, cum[len(cum)-1])
	}
}
