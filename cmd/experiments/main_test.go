package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"sphenergy/internal/experiments"
)

// parentAllSHA256 is the SHA-256 of what `experiments -run all -scale 0.2`
// printed at commit b7916db, where a hand-rolled pool of -j workers ran the
// experiments and every run inside one was serial.
const parentAllSHA256 = "5fb6e90fb641a4a9c74545536f19d8acaa0dea42e6e0a44e73eb7247d1459f0d"

// The whole paper at scale 0.2 prints the parent commit's bytes — at the
// test's GOMAXPROCS, which `make race-model` sets to 4 so that experiments
// sharing the session cache and the Fig. 4/5 runs really overlap.
func TestRunAllPrintsParentBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("renders every experiment")
	}
	var out bytes.Buffer
	if err := run([]string{"-run", "all", "-scale", "0.2"}, &out); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != parentAllSHA256 {
		t.Errorf("-run all -scale 0.2 prints %s, parent printed %s", got, parentAllSHA256)
	}
}

// A failing experiment surfaces its error, wrapped with its name, and
// nothing is printed for it.
func TestUnknownExperimentFatal(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-run", "fig99"}, &out)
	if err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("err = %v, want one naming fig99", err)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q before failing", out.String())
	}
}

// An -out write failure is fatal too, after the output was printed.
func TestOutWriteErrorFatal(t *testing.T) {
	dir := t.TempDir()
	// <out>/table1.txt exists as a directory, so writing the file fails.
	if err := os.Mkdir(filepath.Join(dir, "table1.txt"), 0o755); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	err := run([]string{"-run", "table1", "-out", dir}, &out)
	if err == nil {
		t.Fatal("write into a directory path succeeded")
	}
	if !strings.Contains(out.String(), "TABLE I") {
		t.Errorf("table1 was not printed before the write failed:\n%s", out.String())
	}
}

// -out writes each figure as it was printed, under its final name only: the
// file holds the printed block between the separator line and the newline
// that ends it, and no temp file is left beside it.
func TestOutWritesPrintedFigure(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := run([]string{"-run", "table1", "-out", dir}, &out); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, "table1.txt"))
	if err != nil {
		t.Fatal(err)
	}
	sep := "=================================================================\n"
	if want := sep + string(got) + "\n"; out.String() != want {
		t.Errorf("table1.txt (%d bytes) is not what was printed (%d bytes)", len(got), out.Len())
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "table1.txt" {
		t.Errorf("-out directory holds %v, want table1.txt alone", ents)
	}
}

// A -scale the experiments would not run as given is refused, naming the
// flag, before anything is printed or created: 0 and below once meant the
// full paper, NaN and ±Inf two steps.
func TestInvalidScaleRefused(t *testing.T) {
	for _, scale := range []string{"0", "-1", "NaN", "Inf", "-Inf", "1e17", "1e300"} {
		t.Run(scale, func(t *testing.T) {
			var out bytes.Buffer
			dir := filepath.Join(t.TempDir(), "out")
			err := run([]string{"-run", "fig1", "-scale", scale, "-out", dir}, &out)
			if err == nil || !strings.Contains(err.Error(), "-scale") {
				t.Fatalf("err = %v, want one naming -scale", err)
			}
			if out.Len() != 0 {
				t.Errorf("printed %q before refusing", out.String())
			}
			if _, err := os.Stat(dir); !os.IsNotExist(err) {
				t.Errorf("-out directory created before refusing (%v)", err)
			}
		})
	}
}

// -run scorecard at scale 1 passes and ends with its counts. With a known
// deviation unmarked, that row is a MISS: the card is still printed, and
// the error that makes main exit 1 names the row.
func TestScorecardExitsOnUnmarkedMiss(t *testing.T) {
	if testing.Short() {
		t.Skip("computes every figure the scorecard reads")
	}
	var out bytes.Buffer
	err := run([]string{"-run", "scorecard", "-scale", "1"}, &out)
	if err != nil || !strings.HasSuffix(out.String(), " deviation.\n\n") {
		t.Fatalf("err = %v, output:\n%s", err, out.String())
	}
	res, _ := experiments.Run("scorecard", 1)
	sc := res.(*experiments.ScorecardData)
	i := slices.IndexFunc(sc.Rows, func(r experiments.ScoreRow) bool { return r.Deviation })
	sc.Rows[i].Deviation = false
	out.Reset()
	if err = emit(&out, "scorecard", sc, ""); err == nil || !strings.Contains(err.Error(), sc.Rows[i].Quantity+": MISS") {
		t.Errorf("err = %v, want one naming %q as a MISS", err, sc.Rows[i].Quantity)
	}
	if !strings.Contains(out.String(), "| MISS |") {
		t.Errorf("the card was not printed before failing:\n%s", out.String())
	}
}
