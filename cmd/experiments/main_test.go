package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
