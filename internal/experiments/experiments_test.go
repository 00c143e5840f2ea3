package experiments

import (
	"math"
	"os"
	"strings"
	"sync"
	"testing"
)

// testScale shrinks step counts for test runtime; shapes are invariant.
const testScale = 0.1

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunRefusesScale(t *testing.T) {
	for _, scale := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Run("table1", scale); err == nil {
			t.Errorf("scale %v accepted", scale)
		}
	}
}

// card is the scorecard at scale 1, the scale EXPERIMENTS.md quotes,
// computed once for every test that reads it; a -short run skips.
func card(t *testing.T) *ScorecardData {
	if testing.Short() {
		t.Skip("computes the scale-1 scorecard")
	}
	sc, err := scale1()
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

var scale1 = sync.OnceValues(func() (*ScorecardData, error) { return Scorecard(1) })

// judge fails when a scorecard row under prefix ("Fig. 7", "Fig. 7 Pareto")
// disagrees with its mark: a row outside its band that is not marked a
// deviation, or a marked deviation that now matches and has not been
// flipped. The figure tests below are the table judged figure by figure.
func judge(t *testing.T, prefix string) {
	t.Helper()
	var sub ScorecardData
	for _, r := range card(t).Rows {
		if strings.HasPrefix(r.Figure+" "+r.Quantity, prefix) {
			sub.Rows = append(sub.Rows, r)
		}
	}
	if len(sub.Rows) == 0 {
		t.Fatalf("no scorecard row under %q", prefix)
	}
	if err := sub.Err(); err != nil {
		t.Error(err)
	}
}

func TestTableIContent(t *testing.T)                { judge(t, "Table I") }
func TestFig1Shape(t *testing.T)                    { judge(t, "Fig. 1") }
func TestFig2TunedFrequencies(t *testing.T)         { judge(t, "Fig. 2") }
func TestFig3PMTvsSlurm(t *testing.T)               { judge(t, "Fig. 3") }
func TestFig4Fig5Bands(t *testing.T)                { judge(t, "Fig. 4"); judge(t, "Fig. 5") }
func TestFig6SmallProblemsBenefitMore(t *testing.T) { judge(t, "Fig. 6") }
func TestFig7StrategyComparison(t *testing.T)       { judge(t, "Fig. 7") }
func TestFig7ParetoFront(t *testing.T)              { judge(t, "Fig. 7 Pareto") }
func TestFig8PerFunctionSweep(t *testing.T)         { judge(t, "Fig. 8") }
func TestFig9DVFSTrace(t *testing.T)                { judge(t, "Fig. 9") }
func TestExtAMDManDynWins(t *testing.T)             { judge(t, "ext-amd") }
func TestExtPowerCapManDynWins(t *testing.T)        { judge(t, "ext-powercap") }

// EXPERIMENTS.md's paper-vs-measured section is the scorecard's Markdown at
// scale 1, byte for byte, between two markers. `make sweeps` runs this at
// GOMAXPROCS 1, 2 and 4.
func TestScorecardMatchesExperimentsMD(t *testing.T) {
	got := card(t).Render()
	md, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "<!-- scorecard:begin -->\n"+got+"<!-- scorecard:end -->") {
		t.Errorf("EXPERIMENTS.md's scorecard section is not what `go run ./cmd/experiments -run scorecard -scale 1` prints; "+
			"put this between its markers:\n%s", got)
	}
}
