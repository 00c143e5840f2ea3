package report

import (
	"strings"
	"testing"

	"sphenergy/internal/attrib"
)

func sampleAttribution() *attrib.Attribution {
	return &attrib.Attribution{
		Opts: attrib.Options{RateHz: 100, TolerancePct: 2, MinResolvablePeriods: 5},
		Kernels: []attrib.Row{
			{Rank: 0, Name: "MomentumEnergy", Calls: 3, TimeS: 1.2, MeanCallS: 0.4,
				ModelJ: 600, SampledJ: 598, ErrPct: -0.333, EDPJs: 717.6, Resolvable: true},
			{Rank: 0, Name: "EOS", Calls: 3, TimeS: 0.006, MeanCallS: 0.002,
				ModelJ: 2, SampledJ: 1, ErrPct: -50, EDPJs: 0.006, Resolvable: false},
			{Rank: 1, Name: "MomentumEnergy", Calls: 3, TimeS: 1.3, MeanCallS: 0.433,
				ModelJ: 620, SampledJ: 619, ErrPct: -0.161, EDPJs: 804.7, Resolvable: true},
		},
		Ranks: []attrib.RankSummary{
			{Rank: 0, ModelJ: 602, SampledJ: 599, ErrPct: -0.498, Samples: 120},
			{Rank: 1, ModelJ: 620, SampledJ: 619, ErrPct: -0.161, Samples: 130},
		},
		AggErrPct:           0.41,
		MaxResolvableErrPct: 0.333,
		Pass:                true,
	}
}

func TestRenderAttribution(t *testing.T) {
	out := RenderAttribution(sampleAttribution(), 10)
	for _, want := range []string{
		"Per-kernel energy attribution (sampled @ 100 Hz)",
		"MomentumEnergy",
		"EOS ~", // unresolvable marker
		"below sampler resolution",
		"PASS: aggregate err 0.410%",
		"worst resolvable err 0.333%",
		"tolerance 2%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Cross-rank aggregation: one MomentumEnergy line, 6 calls total.
	if strings.Count(out, "MomentumEnergy") != 1 {
		t.Errorf("TopKernels should merge ranks:\n%s", out)
	}
	// Both rank summary lines present.
	for _, want := range []string{"120", "130"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing rank samples %q in:\n%s", want, out)
		}
	}
	if RenderAttribution(nil, 5) != "" {
		t.Error("nil attribution should render empty")
	}
}

func TestRenderAttributionFailVerdict(t *testing.T) {
	a := sampleAttribution()
	a.Pass = false
	a.AggErrPct = 4.2
	out := RenderAttribution(a, 0)
	if !strings.Contains(out, "FAIL: aggregate err 4.200%") {
		t.Errorf("missing FAIL verdict:\n%s", out)
	}
	if strings.Contains(out, "dropped") {
		t.Errorf("a join without drops mentions them:\n%s", out)
	}
	// A ring overflow is the stated reason, ahead of the figures it voids.
	a.MarkDropped(34464)
	out = RenderAttribution(a, 0)
	reason := strings.Index(out, "FAIL: sampler rings overflowed, 34464 samples dropped")
	if reason < 0 || reason > strings.Index(out, "FAIL: aggregate err") {
		t.Errorf("overflow not given as the reason before the verdict:\n%s", out)
	}
}

func TestRenderValidation(t *testing.T) {
	v := attrib.NewValidation(1000, 2)
	v.Add("sampled-sensors", 995, false)
	v.Add("pm_counters", 1004, false)
	v.Add("slurm-consumed", 1000, false)
	v.Add("pmt-loop-only", 900, true)
	out := RenderValidation(v)
	for _, want := range []string{
		"Cross-source energy validation (reference 1000.0 J)",
		"sampled-sensors",
		"pm_counters",
		"slurm-consumed",
		"pmt-loop-only",
		"info", // informational marker
		"PASS: 3/3 sources within 2% of model reference",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}

	// A failing source flips the verdict and gets a FAIL cell.
	v2 := attrib.NewValidation(1000, 2)
	v2.Add("sampled-sensors", 900, false)
	out2 := RenderValidation(v2)
	if !strings.Contains(out2, "FAIL") || !strings.Contains(out2, "0/1 sources") {
		t.Errorf("missing failure rendering:\n%s", out2)
	}

	if RenderValidation(nil) != "" {
		t.Error("nil validation should render empty")
	}
}
