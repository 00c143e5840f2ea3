package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"sphenergy"
	"sphenergy/internal/core"
	"sphenergy/internal/instr"
)

// TestMain lets the tests below run the command itself: re-executed with
// SPHEXA_TEST_MAIN set, the test binary is sphexa.
func TestMain(m *testing.M) {
	if os.Getenv("SPHEXA_TEST_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func runSphexa(t *testing.T, args ...string) (stdout, stderr string, err error) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "SPHEXA_TEST_MAIN=1")
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	err = cmd.Run()
	return out.String(), errb.String(), err
}

func TestUnknownCarbonGridFailsBeforeTheRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "run")
	stdout, stderr, err := runSphexa(t, "-ranks", "1", "-s", "3", "-ppr", "10e6", "-carbon", "bogus", "-out", out)
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("err = %v, want a non-zero exit", err)
	}
	if !strings.Contains(stderr, `unknown grid "bogus"`) {
		t.Errorf("stderr = %q, want the unknown-grid error", stderr)
	}
	if stdout != "" {
		t.Errorf("the run executed before the flag was rejected:\n%s", stdout)
	}
	if _, err := os.Stat(out); err == nil {
		t.Error("bundle directory created despite the bad flag")
	}
}

// TestUnusableOutFailsBeforeTheRun: a bundle directory that cannot be
// created is refused before anything runs, not after the results print.
func TestUnusableOutFailsBeforeTheRun(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	stdout, stderr, err := runSphexa(t, "-ranks", "1", "-s", "3", "-ppr", "10e6", "-out", filepath.Join(file, "run"))
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("err = %v, want a non-zero exit", err)
	}
	if stdout != "" {
		t.Errorf("the run executed before the path was rejected:\n%s", stdout)
	}
	if !strings.Contains(stderr, "not a directory") {
		t.Errorf("stderr = %q, want the mkdir error", stderr)
	}
}

// TestInterruptKeepsProfileAndBundle stops a long run with SIGINT: it exits
// 130 with its CPU profile written out (gzip-compressed protobuf) and the
// observers' files in the bundle, without a report.
func TestInterruptKeepsProfileAndBundle(t *testing.T) {
	dir := t.TempDir()
	prof, out := filepath.Join(dir, "c.pprof"), filepath.Join(dir, "run")
	cmd := exec.Command(os.Args[0], "-s", "100000000", "-ppr", "10e6", "-q", "-cpuprofile", prof, "-out", out)
	cmd.Env = append(os.Environ(), "SPHEXA_TEST_MAIN=1")
	var errb bytes.Buffer
	cmd.Stderr = &errb
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	// The profile is created after sphexa starts catching signals.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(prof); err == nil {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no profile file after 30 s; stderr:\n%s", errb.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		cmd.Process.Kill()
		t.Fatal("sphexa still running 60 s after SIGINT")
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 130 {
		t.Fatalf("err = %v, want exit 130; stderr:\n%s", err, errb.String())
	}
	data, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
		t.Errorf("profile is %d bytes and does not start with the gzip magic", len(data))
	}
	for name, want := range map[string]bool{"trace.json": true, "metrics.json": false, "events.jsonl": true, "report.json": false} {
		if _, err := os.Stat(filepath.Join(out, name)); (err == nil) != want {
			t.Errorf("%s on disk: %v, want %v", name, err == nil, want)
		}
	}
}

func TestCarbonLine(t *testing.T) {
	stdout, stderr, err := runSphexa(t, "-ranks", "1", "-s", "3000", "-ppr", "10e6", "-q", "-carbon", "swiss")
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	// 3000 steps of one 10e6-particle rank on miniHPC, at the Swiss mix.
	const want = "\ncarbon footprint: 0.42 kWh at 100 gCO2e/kWh -> 0.042 kg CO2e\n"
	if !strings.HasSuffix(stdout, want) {
		t.Errorf("output ends %q, want %q", stdout[max(0, len(stdout)-len(want)):], want)
	}
}

// TestBareRunSucceeds: with no flag but the step count, sphexa runs the
// default system and simulation at a size that fits its GPUs.
func TestBareRunSucceeds(t *testing.T) {
	stdout, stderr, err := runSphexa(t, "-s", "3", "-q")
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	if !strings.Contains(stdout, "9.11e+07 particles/rank") {
		t.Errorf("stdout does not run 450^3 particles/rank:\n%s", stdout)
	}
}

// TestInvalidConfigExitsOne: a configuration the run refuses exits 1 before
// anything runs, and not after the ManDyn sweep printed its table.
func TestInvalidConfigExitsOne(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-ppr", "200e6"}, "GPU memory"},
		{[]string{"-ppr", "200e6", "-strategy", "mandyn"}, "GPU memory"},
		{[]string{"-ppr", "NaN"}, "particles per rank must be positive"},
		{[]string{"-s", "-1"}, "negative step count"},
		{[]string{"-ng", "-5"}, "negative neighbor count"},
		{[]string{"-s", "0"}, "-s 0"},
		{[]string{"-ng", "0"}, "-ng 0"},
		{[]string{"-sample-hz", "100", "-sample-node-hz", "0"}, "-sample-node-hz 0"},
		{[]string{"-strategy", "static:0"}, "-strategy static:0"},
		{[]string{"-strategy", "static:-100"}, "-strategy static:-100"},
		{[]string{"-strategy", "static:5000"}, "-strategy static:5000"},
		{[]string{"-strategy", "powercap:NaN"}, "-strategy powercap:NaN"},
		{[]string{"-sample-hz", "-5"}, "-sample-hz -5"},
		{[]string{"-sample-hz", "NaN"}, "-sample-hz NaN"},
		{[]string{"-sample-node-hz", "-3"}, "-sample-node-hz -3"},
		{[]string{"-walltime-budget", "-5"}, "-walltime-budget -5"},
		{[]string{"-walltime-budget", "NaN"}, "-walltime-budget NaN"},
		{[]string{"-energy-budget", "-5"}, "-energy-budget -5"},
		{[]string{"-energy-budget", "NaN"}, "-energy-budget NaN"},
		{[]string{"-sample-node-hz", "20"}, "-sample-node-hz needs -sample-hz"},
		{[]string{"-sample-hz", "0", "-sample-node-hz", "20"}, "-sample-node-hz needs -sample-hz"},
		{[]string{"-sample-hz", "100"}, "-sample-hz needs -out, -energy-validate or -fault-plan"},
		{[]string{"-degradation", "drop-rank", "-ranks", "2", "-s", "2", "-ppr", "10e6"}, "-degradation needs -fault-plan"},
	} {
		// The case's own flags come last, so its -s overrides the short run.
		stdout, stderr, err := runSphexa(t, append([]string{"-s", "3", "-q"}, c.args...)...)
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("%v: err = %v, want exit 1; stderr:\n%s", c.args, err, stderr)
		}
		if !strings.Contains(stderr, c.want) {
			t.Errorf("%v: stderr = %q, want %q", c.args, stderr, c.want)
		}
		if stdout != "" {
			t.Errorf("%v: printed before refusing:\n%s", c.args, stdout)
		}
	}
}

// TestBudgetStopExitsThree gives a run a wall-time budget of half its
// uninterrupted wall time: sphexa stops it at a step boundary, writes the
// three bundle files, says how many steps ran and exits 3.
func TestBudgetStopExitsThree(t *testing.T) {
	const steps = 10
	run := []string{"-ranks", "2", "-s", strconv.Itoa(steps), "-ppr", "10e6", "-q"}
	dir := t.TempDir()
	whole := filepath.Join(dir, "whole")
	if _, stderr, err := runSphexa(t, append(run, "-out", whole)...); err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	rep, err := instr.ReadReportFile(filepath.Join(whole, sphenergy.BundleReport))
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "stopped")
	budget := strconv.FormatFloat(rep.WallTimeS/2, 'g', -1, 64)
	stdout, stderr, err := runSphexa(t, append(run, "-walltime-budget", budget, "-out", out)...)
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 3 {
		t.Fatalf("err = %v, want exit 3; stderr:\n%s", err, stderr)
	}
	for _, name := range []string{sphenergy.BundleReport, sphenergy.BundleTrace, sphenergy.BundleEvents} {
		if _, err := os.Stat(filepath.Join(out, name)); err != nil {
			t.Errorf("the stopped run's bundle lacks %s: %v", name, err)
		}
	}
	var ran int
	_, line, _ := strings.Cut(stdout, "\nstopped early")
	if _, err := fmt.Sscanf(line, " (budget-walltime) after %d of 10 step(s)", &ran); err != nil {
		t.Fatalf("no stop line in the output (%v):\n%s", err, stdout)
	}
	if ran < 1 || ran >= steps {
		t.Errorf("the budget stopped the run after %d of %d steps, want fewer than -s and at least one", ran, steps)
	}
}

// TestRecoveryFlagsUndefined: the flags of the deleted checkpoint-restart
// are refused as undefined, exit 2, before anything runs.
func TestRecoveryFlagsUndefined(t *testing.T) {
	for _, f := range []string{"-checkpoint-dir", "-autosave-every", "-keep-checkpoints", "-max-restarts"} {
		stdout, stderr, err := runSphexa(t, "-s", "3", "-q", f, "1")
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
			t.Errorf("%s: err = %v, want exit 2", f, err)
		}
		if !strings.Contains(stderr, "flag provided but not defined: "+f) || stdout != "" {
			t.Errorf("%s: stdout %q, stderr %q, want only the undefined-flag error", f, stdout, stderr)
		}
	}
}

func TestResolvePPRDefaults(t *testing.T) {
	for _, c := range []struct {
		sim    core.SimKind
		system sphenergy.NodeSpec
		want   float64
	}{
		{core.Turbulence, sphenergy.MiniHPC(), 450 * 450 * 450},
		{core.Turbulence, sphenergy.LUMIG(), 150e6},
		{core.Turbulence, sphenergy.CSCSA100(), 150e6},
		{core.Evrard, sphenergy.MiniHPC(), 80e6},
		{core.Evrard, sphenergy.LUMIG(), 80e6},
		{core.Evrard, sphenergy.CSCSA100(), 80e6},
	} {
		if got, err := resolvePPR("", c.sim, c.system); err != nil || got != c.want {
			t.Errorf("%s on %s default = %v, %v; want %v", c.sim, c.system.Name, got, err, c.want)
		}
	}
}

func TestResolvePPRLatticeNotation(t *testing.T) {
	v, err := resolvePPR("450^3", core.Turbulence, sphenergy.LUMIG())
	if err != nil || v != 450*450*450 {
		t.Errorf("450^3 = %v, %v", v, err)
	}
	if _, err := resolvePPR("x^3", core.Turbulence, sphenergy.LUMIG()); err == nil {
		t.Error("bad lattice accepted")
	}
}

func TestResolvePPRScientific(t *testing.T) {
	v, err := resolvePPR("1.5e7", core.Turbulence, sphenergy.MiniHPC())
	if err != nil || v != 1.5e7 {
		t.Errorf("1.5e7 = %v, %v", v, err)
	}
	if _, err := resolvePPR("lots", core.Turbulence, sphenergy.MiniHPC()); err == nil {
		t.Error("garbage accepted")
	}
}
