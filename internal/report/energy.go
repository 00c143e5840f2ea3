package report

import (
	"fmt"
	"strings"

	"sphenergy/internal/attrib"
	"sphenergy/internal/faults"
)

// RenderAttribution prints the sampler-joined energy attribution: the
// top-n kernels aggregated across ranks (all when n <= 0) with their
// sampled-vs-model error, achieved clock and EDP, followed by per-rank
// totals and the two-gate verdict. Unresolvable rows — mean call shorter
// than the sampler can resolve — are marked with '~', and rows whose
// energy rests on estimated (failed-over) sampler intervals with '!',
// so the rate/resolution trade-off and any sensor degradation stay
// visible in the output.
func RenderAttribution(a *attrib.Attribution, n int) string {
	if a == nil {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Per-kernel energy attribution (sampled @ %.4g Hz)\n", a.Opts.RateHz)
	fmt.Fprintf(&sb, "%-24s %8s %10s %12s %12s %8s %9s %14s\n",
		"kernel", "calls", "time[s]", "model[J]", "sampled[J]", "err[%]", "clk[MHz]", "EDP[J*s]")
	for _, r := range a.TopKernels(n) {
		name := r.Name
		if !r.Resolvable {
			name += " ~"
		}
		if r.Degraded {
			name += " !"
		}
		clk := "-"
		if r.ClockMHz > 0 {
			clk = fmt.Sprintf("%.0f", r.ClockMHz)
		}
		fmt.Fprintf(&sb, "%-24s %8d %10.4f %12.1f %12.1f %8.3f %9s %14.4g\n",
			name, r.Calls, r.TimeS, r.ModelJ, r.SampledJ, r.ErrPct, clk, r.EDPJs)
	}
	if hasUnresolvable(a.Kernels) {
		sb.WriteString("  (~ below sampler resolution; excluded from the per-row gate)\n")
	}
	if a.Degraded {
		fmt.Fprintf(&sb, "  (! overlaps estimated sensor intervals; %d rows, %.1f J classified unresolvable)\n",
			a.DegradedRows, a.DegradedEnergyJ)
	}
	fmt.Fprintf(&sb, "%-24s %8s %10s %12s %12s %8s\n",
		"rank", "", "samples", "model[J]", "sampled[J]", "err[%]")
	for _, rs := range a.Ranks {
		fmt.Fprintf(&sb, "%-24d %8s %10d %12.1f %12.1f %8.3f\n",
			rs.Rank, "", rs.Samples, rs.ModelJ, rs.SampledJ, rs.ErrPct)
	}
	if a.DroppedSamples > 0 {
		fmt.Fprintf(&sb, "FAIL: sampler rings overflowed, %d samples dropped before their spans were joined — spans\n"+
			"  older than the retained ticks attribute to nothing, so the errors below measure that gap, not\n"+
			"  the sampler (a ring must hold a step's ticks: raise sampler.Config.RingCap or lower the rate)\n", a.DroppedSamples)
	}
	verdict := "PASS"
	if !a.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(&sb, "%s: aggregate err %.3f%%, worst resolvable err %.3f%% (tolerance %.3g%%)\n",
		verdict, a.AggErrPct, a.MaxResolvableErrPct, a.Opts.TolerancePct)
	return sb.String()
}

func hasUnresolvable(rows []attrib.Row) bool {
	for _, r := range rows {
		if !r.Resolvable {
			return true
		}
	}
	return false
}

// RenderValidation prints the cross-source energy comparison as a table
// against the model reference, with the Fig. 3-style informational rows
// marked, closing with the one-line verdict.
func RenderValidation(v *attrib.Validation) string {
	if v == nil {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Cross-source energy validation (reference %.1f J)\n", v.ReferenceJ)
	fmt.Fprintf(&sb, "%-18s %14s %10s %8s\n", "source", "energy[J]", "err[%]", "verdict")
	for _, s := range v.Sources {
		verdict := "ok"
		switch {
		case s.Degraded:
			verdict = "degraded"
		case s.Informational:
			verdict = "info"
		case !s.Pass:
			verdict = "FAIL"
		}
		fmt.Fprintf(&sb, "%-18s %14.1f %10.3f %8s\n", s.Name, s.EnergyJ, s.RelErrPct, verdict)
	}
	sb.WriteString(v.Summary() + "\n")
	return sb.String()
}

// RenderFaults prints the run's fault-injection and resilience summary:
// what was injected per stream, how the clock-control layer coped, which
// ranks died, and whether the sampler served estimated data.
func RenderFaults(f *faults.Report) string {
	if f == nil {
		return ""
	}
	var sb strings.Builder
	name := f.Plan
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(&sb, "Fault injection: plan %s, degradation policy %s\n", name, f.Degradation)
	if len(f.Injected) > 0 {
		fmt.Fprintf(&sb, "%-28s %-14s %8s\n", "stream", "kind", "count")
		for _, ic := range f.Injected {
			fmt.Fprintf(&sb, "%-28s %-14s %8d\n", ic.Stream, ic.Kind, ic.Count)
		}
	}
	if f.Retries+f.Absorbed+f.Clamped+f.ShortCircuits+f.BreakerTrips > 0 {
		fmt.Fprintf(&sb, "clock control: %d retries, %d absorbed, %d clamped, %d short-circuited, %d breaker trips (%d ranks latched safe)\n",
			f.Retries, f.Absorbed, f.Clamped, f.ShortCircuits, f.BreakerTrips, f.BrokenRanks)
	}
	if f.SamplerDegraded {
		sb.WriteString("sampler: DEGRADED — some intervals are estimated, not measured\n")
	}
	for _, rf := range f.Failures {
		fmt.Fprintf(&sb, "rank %d failed at step %d (t=%.3f s)\n", rf.Rank, rf.Step, rf.TimeS)
	}
	return sb.String()
}
