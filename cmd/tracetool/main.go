// Command tracetool analyzes a Chrome trace export written by -trace-out:
// it reconstructs the run's barriers, computes per-rank critical-path and
// barrier-wait attribution, and ranks the top straggler ranks.
//
// Examples:
//
//	sphexa -sim turbulence -ranks 8 -s 20 -trace-out run.trace.json
//	tracetool run.trace.json
//	tracetool -top 5 -json run.trace.json   # machine-readable output
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"sphenergy/internal/traceanalysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, out *os.File) int {
	fs := flag.NewFlagSet("tracetool", flag.ContinueOnError)
	topK := fs.Int("top", 3, "straggler ranks to list")
	asJSON := fs.Bool("json", false, "emit the full analysis as JSON")
	epsUS := fs.Float64("eps-us", 1, "barrier end-time grouping tolerance in microseconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracetool [-top k] [-json] [-eps-us t] trace.json")
		return 2
	}
	spans, truncated, err := traceanalysis.LoadFileLenient(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracetool:", err)
		return 1
	}
	if truncated {
		fmt.Fprintln(os.Stderr, "tracetool: warning: trace is truncated; analyzing the valid prefix")
	}
	a := traceanalysis.Analyze(spans, traceanalysis.Options{
		TopK: *topK,
		EpsS: *epsUS * 1e-6,
	})
	a.Truncated = truncated
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(a); err != nil {
			fmt.Fprintln(os.Stderr, "tracetool:", err)
			return 1
		}
		return 0
	}
	fmt.Fprint(out, traceanalysis.Render(a))
	return 0
}
