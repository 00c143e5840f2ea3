package experiments

import (
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"
)

// parentSHA256 is the SHA-256 of every experiment's Render() at testScale,
// recorded at commit b7916db — the last one that stepped ranks on their own
// goroutines and ran every experiment's runs one after the other. Moving the
// host parallelism from the rank to the run must not move a simulated byte.
var parentSHA256 = map[string]string{
	"ext-amd":      "c9c6a7d4396ac85888db3668252b38f36445625427d69dba40f8ae4971414084",
	"ext-powercap": "8110c429f0882f020d4953e5d23736c230e7ffeb5ee99d79fcd9dece8d4f6a89",
	"fig1":         "8aca73852c0a4f22a085aea82ae44a4173cac147bfdc5af9a217b8d7b24f3a6b",
	"fig2":         "1add26b2091ffb96ede8536e613ac289bd0a005d74afd94166a561d51c6b9e5c",
	"fig3":         "d5f1f4c5221fc73c811fceab9bd5b09361aff53177546e197ebaf0ad8bdc3460",
	"fig4":         "05ec279a324856bc7327f16c5a1260d2cb3672cbd4f60a2da1501fb28d810bcb",
	"fig5":         "418a78d80f5d6c80f67ef25cfe60da7a776320ba9a8ea1ac01f07004ba2dddd2",
	"fig6":         "5dcafaf2f58e6fa494d33090ab6c943f67dd34e61ce477e07b4fbe57a989ec32",
	"fig7":         "de428ac26d01a3d6f0087a43b366c195cadc67de511a6207148b06083007d7e0",
	"fig8":         "70a4c45405ba2a76a63a5736bfa83489bac28337446763545a2d3cd29465d174",
	"fig9":         "a1e7b39b057f517ddd2c1d02359c71072621126a4587714a38d60982a5ddd043",
	"table1":       "56df32c4471102d98ef7ed1407e5f4de1538517b8dd59c8896dbefb6ad629d26",
}

// forgetSession empties the process-lifetime Fig. 4/5 memo, so the next
// render recomputes everything.
func forgetSession() {
	fig45Memo.Range(func(k, _ any) bool {
		fig45Memo.Delete(k)
		return true
	})
}

func renderSHA256(t *testing.T, id string) string {
	t.Helper()
	r, err := Run(id, testScale)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return fmt.Sprintf("%x", sha256.Sum256([]byte(r.Render())))
}

// Every experiment renders the parent commit's bytes at every width, hence
// the same bytes across widths: GOMAXPROCS 1 is the serial loop, 2 and 4
// split each figure's runs over par.Tasks workers.
func TestRendersPinnedAcrossWidths(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment three times")
	}
	if len(parentSHA256) != len(Names()) {
		t.Fatalf("pin table has %d ids, registry %d", len(parentSHA256), len(Names()))
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		forgetSession()
		for _, id := range Names() {
			if got := renderSHA256(t, id); got != parentSHA256[id] {
				t.Errorf("GOMAXPROCS %d: %s renders %s, parent rendered %s", procs, id, got, parentSHA256[id])
			}
		}
	}
}

// Figs. 4 and 5 share four runs through fig45Memo: whichever renders first
// pays, and neither figure's bytes depend on which that was.
func TestFig45ShareRunsInAnyOrder(t *testing.T) {
	for _, order := range [][]string{{"fig5"}, {"fig4", "fig5"}, {"fig5", "fig4"}} {
		forgetSession()
		for _, id := range order {
			if got := renderSHA256(t, id); got != parentSHA256[id] {
				t.Errorf("order %v: %s renders %s, want %s", order, id, got, parentSHA256[id])
			}
		}
		// One entry per (case, steps), however many figures read it.
		n := 0
		fig45Memo.Range(func(_, _ any) bool { n++; return true })
		if n != len(fig45Cases()) {
			t.Errorf("order %v: memo holds %d runs, want %d", order, n, len(fig45Cases()))
		}
	}
}
