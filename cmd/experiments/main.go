// Command experiments regenerates the paper's tables and figures on the
// simulated systems.
//
// Usage:
//
//	experiments -list
//	experiments -run fig7
//	experiments -run all -scale 0.2
//	experiments -run scorecard -scale 1
//
// Experiments — and, inside each, its independent runs — execute on up to
// GOMAXPROCS goroutines; the output is byte-identical at every width.
//
// -run scorecard, not part of all, prints the paper-vs-measured table
// EXPERIMENTS.md carries and exits 1 when a row disagrees with its mark.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sphenergy/internal/atomicio"
	"sphenergy/internal/experiments"
	"sphenergy/internal/par"
)

// run is main without the process: it parses args, runs the selected
// experiments through par.Tasks and writes them to stdout in -list order.
// The first failure by that order (a run, an -out write, or a scorecard row
// that disagrees with its mark) is returned after the outputs before it.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	list := fs.Bool("list", false, "list available experiments")
	id := fs.String("run", "all", "experiment id to run (table1, fig1..fig9, ext-*, all, or scorecard)")
	scale := fs.Float64("scale", 1.0, "step-count scale factor (1.0 = the paper's 100 steps)")
	outDir := fs.String("out", "", "also write each experiment's output to <out>/<id>.txt")
	fs.Parse(args) // ExitOnError: never returns one

	if *list {
		for _, n := range experiments.Names() {
			fmt.Fprintln(stdout, n)
		}
		fmt.Fprintln(stdout, "scorecard")
		return nil
	}

	if err := experiments.CheckScale(*scale); err != nil {
		return fmt.Errorf("-scale %w", err)
	}
	names := []string{*id}
	if *id == "all" {
		names = experiments.Names()
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}
	results := make([]experiments.Renderable, len(names))
	errs := make([]error, len(names))
	par.Tasks(len(names), func(i int) {
		if results[i], errs[i] = experiments.Run(names[i], *scale); errs[i] != nil {
			errs[i] = fmt.Errorf("%s: %w", names[i], errs[i])
		}
	})
	for i, name := range names {
		if errs[i] != nil {
			return errs[i]
		}
		if err := emit(stdout, name, results[i], *outDir); err != nil {
			return err
		}
	}
	return nil
}

// emit prints one experiment's output, and writes it to <outDir>/<name>.txt
// when outDir is set, atomically: a killed run never leaves a half-written
// figure under its name. A scorecard's disagreeing rows are its error.
func emit(stdout io.Writer, name string, res experiments.Renderable, outDir string) error {
	out := res.Render()
	fmt.Fprintln(stdout, "=================================================================")
	fmt.Fprintln(stdout, out)
	if outDir != "" {
		if err := atomicio.WriteFileBytes(filepath.Join(outDir, name+".txt"), []byte(out)); err != nil {
			return err
		}
	}
	if sc, ok := res.(*experiments.ScorecardData); ok {
		return sc.Err()
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
