package sphenergy

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"strings"
	"testing"

	"sphenergy/internal/experiments"
)

// The three paper values benchmark/model.go measures result_err_pct against
// are the scorecard's Fig. 7 paper values, so that copy cannot drift. The
// benchmark states the time loss and the two gains as positive numbers; the
// scorecard states changes against the baseline.
func TestBenchmarkPaperValuesAreTheScorecards(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "benchmark/model.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	bench := map[string]float64{}
	ast.Inspect(f, func(n ast.Node) bool {
		if vs, ok := n.(*ast.ValueSpec); ok && len(vs.Values) == 1 {
			if lit, ok := vs.Values[0].(*ast.BasicLit); ok {
				bench[vs.Names[0].Name], _ = strconv.ParseFloat(lit.Value, 64)
			}
		}
		return true
	})
	res, err := experiments.Run("scorecard", 0.02) // paper values do not depend on the scale
	if err != nil {
		t.Fatal(err)
	}
	paper := map[string]float64{}
	for _, r := range res.(*experiments.ScorecardData).Rows {
		if r.Figure == "Fig. 7" {
			paper[r.Quantity], _ = strconv.ParseFloat(strings.Fields(r.Paper)[0], 64)
		}
	}
	for name, want := range map[string]float64{
		"paperTimeLoss":   paper["ManDyn time vs baseline"],
		"paperEnergySave": -paper["ManDyn energy vs baseline"],
		"paperStaticEDP":  -paper["static-1005 EDP vs baseline"],
	} {
		if got := bench[name]; got != want || got == 0 {
			t.Errorf("benchmark/model.go %s = %v, the scorecard's Fig. 7 paper value says %v", name, got, want)
		}
	}
}
