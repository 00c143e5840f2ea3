// Command benchmark measures both halves of the repository under one
// protocol: the real SPH engine (turb30, evrard30) and the virtual-time
// energy stack (model_paper, model_observed). It times the program from
// outside, through its public functions; README.md has the metric tables.
//
//	go run ./benchmark -workload all              # every workload, end-to-end metrics
//	go run ./benchmark -workload turb30 -trace 1  # the traced run: per-layer metrics
//	go run ./benchmark -compare a.json b.json     # judge two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		opt     options
		trace   = flag.Int("trace", 0, "1 does the traced run that produces the per-layer metrics; 0 measures the end-to-end metrics")
		cmp     = flag.Bool("compare", false, "judge two result files, base then candidate, against the bounds in BENCHMARK.json")
		childOf = flag.String("child", "", "internal: run one child task, given as JSON")
	)
	flag.StringVar(&opt.workload, "workload", "all", "workload to run: turb30, evrard30, model_paper, model_observed or all")
	flag.Uint64Var(&opt.seed, "seed", 42, "seed the inputs are made from")
	flag.IntVar(&opt.seconds, "seconds", 0, "measured seconds per workload the repetition count is sized for; the driver passes run_seconds of BENCHMARK.json, which is the default")
	flag.IntVar(&opt.reps, "reps", 0, "exact repetitions per workload (default: as many nominal windows as fill -seconds, at least 3)")
	flag.BoolVar(&opt.smoke, "smoke", false, "tiny sizes and one repetition, to exercise every path quickly")
	flag.StringVar(&opt.out, "out", filepath.Join(buildDir, "benchmark-result.json"), "result file")
	flag.Parse()

	if *childOf != "" {
		var cfg repConfig
		if err := json.Unmarshal([]byte(*childOf), &cfg); err != nil {
			fatal(err)
		}
		if err := json.NewEncoder(os.Stdout).Encode(runChild(cfg)); err != nil {
			fatal(err)
		}
		return
	}

	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *cmp {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files: base, then candidate"))
		}
		a, err := readResultFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		b, err := readResultFile(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if err := checkComparable(a, b); err != nil {
			fatal(fmt.Errorf("cannot compare %s with %s: %w", flag.Arg(0), flag.Arg(1), err))
		}
		if compare(os.Stdout, spec, a, b) {
			os.Exit(1)
		}
		return
	}

	opt.trace = *trace != 0
	if opt.seconds <= 0 {
		opt.seconds = spec.RunSeconds
	}
	if err := os.MkdirAll(filepath.Dir(opt.out), 0o755); err != nil {
		fatal(err)
	}
	tmp, err := os.MkdirTemp(filepath.Dir(opt.out), "tmp-")
	if err != nil {
		fatal(err)
	}
	h := &harness{spec: spec, opt: opt, spawn: spawnProcess, tmp: tmp, log: os.Stdout}
	res, err := h.run()
	os.RemoveAll(tmp)
	if err != nil {
		fatal(err)
	}
	h.print(os.Stdout, res)
	if err := res.writeFile(opt.out); err != nil {
		fatal(err)
	}
	fmt.Printf("\nresult written to %s\n", opt.out)

	ok := true
	for i := range res.Workloads {
		wl := &res.Workloads[i]
		ok = ok && wl.correct()
		line, err := json.Marshal(h.driverLine(wl))
		if err != nil {
			fatal(err)
		}
		if len(res.Workloads) > 1 {
			fmt.Printf("%s:\n", wl.Name)
		}
		fmt.Printf("%s\n", line)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
