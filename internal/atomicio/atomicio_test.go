package atomicio

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWriteFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteFileBytes(path, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestWriteErrorLeavesTargetUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileBytes(path, []byte("original complete artifact")); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("disk on fire")
	err := WriteFile(path, func(w io.Writer) error {
		// Partial write, then failure — the half-written temp must vanish.
		if _, werr := w.Write([]byte("new but trunc")); werr != nil {
			return werr
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "original complete artifact" {
		t.Fatalf("target damaged by failed write: %q", got)
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file leaked: %s", e.Name())
		}
	}
}

// TestKillMidWriteNeverTruncatesTarget is the kill-mid-write regression:
// for every byte-cut point of the new content it simulates a writer that
// died after writing exactly n bytes of its temp file (before the rename),
// and asserts the artifact under the final name is still the old complete
// file — the byte-by-byte cut technique of traceanalysis.LoadLenient
// applied to the write side.
func TestKillMidWriteNeverTruncatesTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	oldContent := `{"traceEvents":[{"name":"complete"}]}`
	if err := WriteFileBytes(path, []byte(oldContent)); err != nil {
		t.Fatal(err)
	}
	newContent := []byte(`{"traceEvents":[{"name":"next run, longer payload"}]}`)

	for n := 0; n <= len(newContent); n++ {
		// A writer killed mid-write leaves only a partial temp file; the
		// rename never happened.
		tmp, err := os.CreateTemp(dir, ".trace.json.tmp-*")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tmp.Write(newContent[:n]); err != nil {
			t.Fatal(err)
		}
		tmp.Close()

		got, err := os.ReadFile(path)
		if err != nil || string(got) != oldContent {
			t.Fatalf("cut at %d bytes: reader sees %q, %v", n, got, err)
		}
		os.Remove(tmp.Name())
	}
}

func TestWriteFileCreatesFreshTarget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "x")
	if err := WriteFileBytes(path, []byte("x")); err == nil {
		t.Fatal("write into missing directory succeeded")
	} else if !strings.Contains(err.Error(), "atomicio") {
		t.Fatalf("unwrapped error: %v", err)
	}
	// Many targets in one dir: names must not collide.
	dir := t.TempDir()
	for i := 0; i < 5; i++ {
		p := filepath.Join(dir, "f")
		if err := WriteFileBytes(p, []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := os.ReadFile(filepath.Join(dir, "f"))
	if string(got) != "4" {
		t.Fatalf("last write lost: %q", got)
	}
}

// TestWriteFileModeMatchesCreate: a new artifact is as readable as one
// os.Create makes in the same directory — the umask decides, not the temp
// file WriteFile renamed into place.
func TestWriteFileModeMatchesCreate(t *testing.T) {
	dir := t.TempDir()
	ref, err := os.Create(filepath.Join(dir, "reference"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	path := filepath.Join(dir, "artifact")
	if err := WriteFileBytes(path, []byte("x")); err != nil {
		t.Fatal(err)
	}
	want, err := os.Stat(ref.Name())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Mode() != want.Mode() {
		t.Errorf("WriteFile made %v, os.Create makes %v", got.Mode(), want.Mode())
	}
}

// WriteFileBytes is WriteFile for callers that already hold the content.
func WriteFileBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
