// Command inspect reads the bundle a sphexa run leaves in its -out
// directory — the post-hoc analysis step of the paper's workflow (§III-B):
//
//	inspect energy DIR [-baseline DIR]             breakdowns, attribution, validation, faults
//	inspect decisions DIR [-threshold 25] [-json]  the decision ledger's audit
//	inspect trace DIR [-top 3] [-json]             critical path and straggler ranks
//
// decisions joins the ledger's frequency decisions to the tuner sweep's
// predictions in the same ledger, and both to the report's achieved energy
// whenever the bundle has a report, and measures each choice against the
// sweep's sweet spot. The
// JSON form of energy is the bundle's report.json itself. sphexa writes
// each bundle file whole (a temporary file, then a rename), so a cut file
// was cut after the run: a report or trace that does not parse to its end
// is refused, exit 1, and the ledger is audited up to its valid prefix,
// the audit saying how many bytes lay beyond it.
// Exit status: 0 success, 1 an unreadable bundle or nothing to audit, 2
// usage, a flag value the verb would misread included.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"

	"sphenergy"
	"sphenergy/internal/attrib"
	"sphenergy/internal/cluster"
	"sphenergy/internal/events"
	"sphenergy/internal/instr"
	"sphenergy/internal/report"
	"sphenergy/internal/traceanalysis"
)

const usage = `usage: inspect energy|decisions|trace DIR [flags]
DIR is a run bundle written by sphexa -out DIR; inspect VERB -h lists a verb's flags.
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	fset := flag.NewFlagSet("inspect "+args[0], flag.ContinueOnError)
	fset.SetOutput(stderr)
	var act func(dir string) error
	check := func() error { return nil } // refuses flag values the verb would misread
	switch args[0] {
	case "energy":
		baseline := fset.String("baseline", "", "baseline bundle to normalize against")
		act = func(dir string) error { return energy(stdout, dir, *baseline) }
	case "decisions":
		threshold := fset.Float64("threshold", 25, "flag decisions whose achieved EDP deviates from the prediction by more than this percentage")
		asJSON := fset.Bool("json", false, "emit the analysis as JSON instead of the rendered table")
		act = func(dir string) error { return decisions(stdout, stderr, dir, *threshold, *asJSON) }
		check = func() error {
			if !(*threshold >= 0) {
				return fmt.Errorf("-threshold %v: want a percentage >= 0", *threshold)
			}
			return nil
		}
	case "trace":
		topK := fset.Int("top", 3, "straggler ranks to list")
		asJSON := fset.Bool("json", false, "emit the full analysis as JSON")
		act = func(dir string) error { return trace(stdout, dir, *topK, *asJSON) }
		check = func() error {
			if *topK < 1 {
				return fmt.Errorf("-top %d: want at least 1", *topK)
			}
			return nil
		}
	default:
		fmt.Fprintf(stderr, "inspect: unknown verb %q\n%s", args[0], usage)
		return 2
	}
	dir, ok := parse(fset, args[1:])
	if ok {
		if err := check(); err != nil {
			fmt.Fprintf(stderr, "inspect %s: %v\n", args[0], err)
			ok = false
		}
	}
	if !ok {
		fmt.Fprint(stderr, usage)
		return 2
	}
	if err := act(dir); err != nil {
		fmt.Fprintf(stderr, "inspect %s: %v\n", args[0], err)
		return 1
	}
	return 0
}

// parse reads a verb's flags and its one bundle directory, the flags on
// either side of it.
func parse(fset *flag.FlagSet, args []string) (dir string, ok bool) {
	if fset.Parse(args) != nil || fset.NArg() == 0 {
		return "", false
	}
	dir = fset.Arg(0)
	if fset.Parse(fset.Args()[1:]) != nil || fset.NArg() != 0 {
		return "", false
	}
	return dir, true
}

func energy(w io.Writer, dir, baseline string) error {
	r, err := instr.ReadReportFile(filepath.Join(dir, sphenergy.BundleReport))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "simulation: %s on %s (%d ranks, strategy %s)\n",
		r.Simulation, r.System, len(r.Ranks), r.Strategy)
	fmt.Fprintf(w, "wall time: %.1f s, total energy: %.3f MJ, EDP: %.4g J*s\n\n",
		r.WallTimeS, r.TotalEnergyJ/1e6, r.EDP())

	spec, err := cluster.SystemByName(r.System)
	if err != nil {
		// Unknown system names still get a breakdown without memory split.
		spec = cluster.NodeSpec{Name: r.System}
	}
	fmt.Fprint(w, report.NewDeviceBreakdown(r, spec, r.Simulation).Render())
	fmt.Fprintln(w)
	fmt.Fprint(w, report.NewFunctionBreakdown(r, r.Simulation).Render())

	// Per-rank imbalance summary.
	if len(r.Ranks) > 1 {
		minT, maxT := math.Inf(1), 0.0
		for _, rp := range r.Ranks {
			t := rp.TotalGPUJ()
			minT, maxT = min(minT, t), max(maxT, t)
		}
		if maxT > 0 {
			fmt.Fprintf(w, "\nper-rank GPU energy spread: min %.1f J, max %.1f J (%.2f%% imbalance)\n",
				minT, maxT, 100*(maxT-minT)/maxT)
		} else {
			// All ranks reported zero GPU energy (e.g. a CPU-only or empty
			// report) — there is no imbalance to quantify.
			fmt.Fprintf(w, "\nper-rank GPU energy spread: all ranks 0 J\n")
		}
	}

	if r.Attribution != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, report.RenderAttribution(r.Attribution, 12))
	}
	if r.Validation != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, report.RenderValidation(r.Validation))
	}
	if r.Faults != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, report.RenderFaults(r.Faults))
	}

	if baseline != "" {
		b, err := instr.ReadReportFile(filepath.Join(baseline, sphenergy.BundleReport))
		if err != nil {
			return err
		}
		n := report.Normalize(r.Strategy, r.WallTimeS, r.TotalEnergyJ, b.WallTimeS, b.TotalEnergyJ)
		fmt.Fprintln(w)
		fmt.Fprint(w, report.RenderNormalizedTable(
			fmt.Sprintf("normalized to %s (%s)", b.Strategy, baseline),
			[]report.Normalized{n}))
	}
	return nil
}

func decisions(stdout, stderr io.Writer, dir string, threshold float64, asJSON bool) error {
	evs, beyond, err := events.ReadFile(filepath.Join(dir, sphenergy.BundleEvents))
	if err != nil {
		return err
	}
	if beyond > 0 {
		fmt.Fprintf(stderr, "inspect: warning: ledger file is truncated; auditing the valid prefix (%d bytes beyond it not read)\n", beyond)
	}

	// The achieved side of the join, whenever the run got as far as its
	// report.
	var att *attrib.Attribution
	system := ""
	rep, err := instr.ReadReportFile(filepath.Join(dir, sphenergy.BundleReport))
	switch {
	case err == nil:
		att, system = rep.Attribution, rep.System
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}

	a := analyze(evs, att, threshold)
	a.Truncated, a.BeyondBytes = beyond > 0, beyond
	if a.System == "" {
		a.System = system
	}
	// A baseline or static run that met faults or a budget legitimately has
	// no frequency decisions; only bail when there are no anomalies to
	// report either.
	if a.Decisions == 0 && len(a.Anomalies) == 0 {
		return errors.New("ledger holds no frequency decisions or anomalies — nothing to audit")
	}
	if asJSON {
		return writeJSON(stdout, a)
	}
	fmt.Fprint(stdout, render(a))
	return nil
}

func trace(stdout io.Writer, dir string, topK int, asJSON bool) error {
	spans, err := traceanalysis.LoadFile(filepath.Join(dir, sphenergy.BundleTrace))
	if err != nil {
		return err
	}
	a := traceanalysis.Analyze(spans, traceanalysis.Options{TopK: topK})
	if asJSON {
		return writeJSON(stdout, a)
	}
	fmt.Fprint(stdout, traceanalysis.Render(a))
	return nil
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
