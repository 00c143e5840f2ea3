// Command experiments regenerates the paper's tables and figures on the
// simulated systems.
//
// Usage:
//
//	experiments -list
//	experiments -run fig7
//	experiments -run all -scale 0.2
//
// Experiments — and, inside each, its independent runs — execute on up to
// GOMAXPROCS goroutines; the output is byte-identical at every width.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"sphenergy/internal/experiments"
	"sphenergy/internal/par"
)

// run is main without the process: it parses args, renders the selected
// experiments through par.Tasks and writes them to stdout in -list order.
// The first failure by that order — a render or an -out write — is returned
// after the outputs before it were written.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	list := fs.Bool("list", false, "list available experiments")
	id := fs.String("run", "all", "experiment id to run (table1, fig1..fig9, ext-*, all)")
	scale := fs.Float64("scale", 1.0, "step-count scale factor (1.0 = the paper's 100 steps)")
	outDir := fs.String("out", "", "also write each experiment's output to <out>/<id>.txt")
	fs.Parse(args) // ExitOnError: never returns one

	if *list {
		for _, n := range experiments.Names() {
			fmt.Fprintln(stdout, n)
		}
		return nil
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
	outs := make([]string, len(names))
	errs := make([]error, len(names))
	par.Tasks(len(names), func(i int) {
		res, err := experiments.Run(names[i], *scale)
		if err != nil {
			errs[i] = fmt.Errorf("%s: %w", names[i], err)
			return
		}
		outs[i] = res.Render()
	})
	for i, name := range names {
		if errs[i] != nil {
			return errs[i]
		}
		fmt.Fprintln(stdout, "=================================================================")
		fmt.Fprintln(stdout, outs[i])
		if *outDir != "" {
			if err := os.WriteFile(filepath.Join(*outDir, name+".txt"), []byte(outs[i]), 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
