package main

import (
	"fmt"
	"io"
	"math"
)

// Verdicts of one (workload, end-to-end metric) pairing.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// absFloor is the absolute part of a bound, in the metric's unit: a metric
// may get worse by max(bound x base, floor) before it counts. BENCHMARK.json
// has room for the relative part only; the floors keep a 3 ms set-up and an
// error of a few hundredths of a point from tripping on jitter.
var absFloor = map[string]float64{
	"setup_s":        0.05,
	"result_err_pct": 0.05,
}

// judge compares metric m of the candidate b against the base a under the
// committed bound. worse is how much worse b's median is, as a share of
// a's. Where the run-to-run spread of either side is wider than what the
// bound allows and the two sets of runs overlap, the pairing is unresolved:
// the runs cannot tell a regression from noise.
func judge(spec metricSpec, a, b metricResult) (worse float64, verdict string) {
	by := b.Value - a.Value
	if spec.Better == "higher" {
		by = -by
	}
	if a.Value != 0 {
		worse = by / math.Abs(a.Value)
	}
	allowed := math.Max(spec.Bound*math.Abs(a.Value), absFloor[spec.Name])
	wide := a.Q3-a.Q1 > allowed || b.Q3-b.Q1 > allowed
	overlap := a.Min <= b.Max && b.Min <= a.Max
	switch {
	case wide && overlap:
		return worse, verdictUnresolved
	case by > allowed:
		return worse, verdictRegressed
	}
	return worse, verdictOK
}

// checkComparable says why two result files cannot be judged against each
// other: another seed makes other inputs, and smoke or traced runs measure
// something else.
func checkComparable(a, b *benchResult) error {
	switch {
	case a.Seed != b.Seed:
		return fmt.Errorf("seeds differ: %d and %d", a.Seed, b.Seed)
	case a.Smoke != b.Smoke:
		return fmt.Errorf("one of the two is a -smoke run")
	case a.Trace != b.Trace:
		return fmt.Errorf("one of the two is a traced run")
	case a.Trace:
		return fmt.Errorf("traced runs carry no end-to-end metrics to judge")
	}
	return nil
}

// compare prints, per workload row and end-to-end metric, both medians and
// quartiles, the change with its base, the bound and the verdict. It
// reports whether b regressed against a: a metric beyond its bound, or a
// higher share of failed operations.
func compare(w io.Writer, spec *benchSpec, a, b *benchResult) (regressed bool) {
	fmt.Fprintf(w, "base      %s  seed %d  (%s)\ncandidate %s  seed %d  (%s)\n",
		a.Env.GitRev, a.Seed, a.Env.StartedAt, b.Env.GitRev, b.Seed, b.Env.StartedAt)
	for _, wa := range a.Workloads {
		wb := b.workload(wa.Name)
		if wb == nil {
			fmt.Fprintf(w, "\n%s: missing from the candidate\n", wa.Name)
			regressed = true
			continue
		}
		fmt.Fprintf(w, "\n%s\n  %-16s %-5s %12s %25s %12s %25s %22s %10s  %s\n", wa.Name,
			"metric", "unit", "base", "[q1, q3]", "candidate", "[q1, q3]", "change (of base)", "bound", "verdict")
		for _, m := range spec.EndToEnd {
			ma, ok := wa.Metrics[m.Name]
			if !ok {
				continue // nothing to hold the candidate to
			}
			mb, ok := wb.Metrics[m.Name]
			if !ok {
				fmt.Fprintf(w, "  %-16s %-5s %12.6g  missing from the candidate: %s\n", m.Name, m.Unit, ma.Value, verdictRegressed)
				regressed = true
				continue
			}
			worse, verdict := judge(m, ma, mb)
			if verdict == verdictRegressed {
				regressed = true
			}
			change := fmt.Sprintf("%+.2f%% of %.6g", 100*(mb.Value-ma.Value)/ma.Value, ma.Value)
			bound := fmt.Sprintf("%.0f%%", 100*m.Bound)
			if floor, ok := absFloor[m.Name]; ok {
				bound += fmt.Sprintf(" / %g", floor)
			}
			fmt.Fprintf(w, "  %-16s %-5s %12.6g %25s %12.6g %25s %22s %10s  %s",
				m.Name, m.Unit, ma.Value, fmt.Sprintf("[%.6g, %.6g]", ma.Q1, ma.Q3),
				mb.Value, fmt.Sprintf("[%.6g, %.6g]", mb.Q1, mb.Q3), change, bound, verdict)
			if verdict != verdictOK {
				fmt.Fprintf(w, " (worse by %+.1f%%)", 100*worse)
			}
			fmt.Fprintln(w)
		}
		fa := float64(wa.OpsFailed) / float64(max(wa.OpsAttempted, 1))
		fb := float64(wb.OpsFailed) / float64(max(wb.OpsAttempted, 1))
		fmt.Fprintf(w, "  ops_failed %d of %d -> %d of %d\n", wa.OpsFailed, wa.OpsAttempted, wb.OpsFailed, wb.OpsAttempted)
		if fb > fa {
			fmt.Fprintf(w, "  regressed: a higher share of operations failed\n")
			regressed = true
		}
		for _, k := range sortedKeys(wa.Exact) {
			if vb, ok := wb.Exact[k]; ok && vb != wa.Exact[k] {
				fmt.Fprintf(w, "  exact %s changed: %s -> %s\n", k, wa.Exact[k], vb)
			}
		}
	}
	return regressed
}
