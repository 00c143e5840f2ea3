package core_test

import (
	"sync"
	"testing"

	"sphenergy/internal/experiments"
)

// The runner's calibration against the paper is a set of scorecard rows.
// The tests below name the rows each claim is, so that no claim can leave
// the table unnoticed, and require each to match at scale 1, the scale
// EXPERIMENTS.md quotes.

var card = sync.OnceValues(func() (*experiments.ScorecardData, error) { return experiments.Scorecard(1) })

// matches fails unless figure has a row for each quantity and every one of
// them lies in its band, unmarked as a deviation.
func matches(t *testing.T, figure string, quantities ...string) {
	t.Helper()
	if testing.Short() {
		t.Skip("computes the scale-1 scorecard")
	}
	sc, err := card()
	if err != nil {
		t.Fatal(err)
	}
	verdict := map[string]string{}
	for _, r := range sc.Rows {
		if r.Figure == figure {
			verdict[r.Quantity] = r.Verdict()
		}
	}
	for _, q := range quantities {
		if v, ok := verdict[q]; !ok || v != "match" {
			t.Errorf("%s %q: verdict %q, want match", figure, q, v)
		}
	}
}

// ManDyn saves energy for a small slowdown; static down-scaling to 1005 MHz
// is much slower; the DVFS governor keeps the baseline's time but costs
// energy (abstract, §IV-D).
func TestPaperHeadlineBands(t *testing.T) {
	matches(t, "Fig. 7",
		"ManDyn time vs baseline", "ManDyn energy vs baseline", "ManDyn EDP vs baseline",
		"static-1005 time vs baseline", "static-1005 energy vs baseline", "static-1005 EDP vs baseline",
		"ManDyn time lead over static-1005", "ManDyn EDP minus static-1005 EDP",
		"DVFS time vs baseline", "DVFS energy vs baseline")
}

// At 1005 MHz MomentumEnergy and IAD slow down by more than 20 % for a
// limited energy cut, while the light functions barely slow down and gain EDP.
func TestPerFunctionFig8Bands(t *testing.T) {
	const light = "XMass, NormalizationGradh, EquationOfState, UpdateQuantities"
	matches(t, "Fig. 8",
		"MomentumEnergy time at 1005 MHz", "MomentumEnergy energy at 1005 MHz", "MomentumEnergy EDP at 1005 MHz",
		"IADVelocityDivCurl time at 1005 MHz", "IADVelocityDivCurl energy at 1005 MHz", "IADVelocityDivCurl EDP at 1005 MHz",
		"slowest of "+light+" at 1005 MHz", "highest EDP of "+light+" at 1005 MHz")
}

// The GPUs dominate node energy on both systems, LUMI-G spends clearly more
// in total, and MomentumEnergy's share of GPU energy is much larger there.
func TestCrossSystemFig45Bands(t *testing.T) {
	matches(t, "Fig. 4",
		"LUMI-Turb GPU share of node energy", "LUMI-Evr GPU share of node energy",
		"CSCS-A100-Turb GPU share of node energy", "CSCS-A100-Evr GPU share of node energy",
		"LUMI-Turb over CSCS-A100-Turb total energy")
	matches(t, "Fig. 5", "MomentumEnergy share, LUMI-Turb minus CSCS-A100-Turb")
}
