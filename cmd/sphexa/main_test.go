package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"sphenergy/internal/core"
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
	report := filepath.Join(t.TempDir(), "r.json")
	stdout, stderr, err := runSphexa(t, "-ranks", "1", "-s", "3", "-ppr", "10e6", "-carbon", "bogus", "-report", report)
	if _, ok := err.(*exec.ExitError); !ok {
		t.Fatalf("err = %v, want a non-zero exit", err)
	}
	if !strings.Contains(stderr, `unknown grid "bogus"`) {
		t.Errorf("stderr = %q, want the unknown-grid error", stderr)
	}
	if stdout != "" {
		t.Errorf("the run executed before the flag was rejected:\n%s", stdout)
	}
	if _, err := os.Stat(report); err == nil {
		t.Error("report written despite the bad flag")
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

func TestResolvePPRDefaults(t *testing.T) {
	turb, err := resolvePPR("", core.Turbulence)
	if err != nil || turb != 150e6 {
		t.Errorf("turbulence default = %v, %v", turb, err)
	}
	evr, err := resolvePPR("", core.Evrard)
	if err != nil || evr != 80e6 {
		t.Errorf("evrard default = %v, %v", evr, err)
	}
}

func TestResolvePPRLatticeNotation(t *testing.T) {
	v, err := resolvePPR("450^3", core.Turbulence)
	if err != nil || v != 450*450*450 {
		t.Errorf("450^3 = %v, %v", v, err)
	}
	if _, err := resolvePPR("x^3", core.Turbulence); err == nil {
		t.Error("bad lattice accepted")
	}
}

func TestResolvePPRScientific(t *testing.T) {
	v, err := resolvePPR("1.5e7", core.Turbulence)
	if err != nil || v != 1.5e7 {
		t.Errorf("1.5e7 = %v, %v", v, err)
	}
	if _, err := resolvePPR("lots", core.Turbulence); err == nil {
		t.Error("garbage accepted")
	}
}
