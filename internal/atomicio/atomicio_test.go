package atomicio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
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
// file.
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

// payload is n bytes that differ from one step to the next, so that a
// piece written twice or dropped shows.
func payload(n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(i*7 + i/syncStep)
	}
	return p
}

// writeInPieces writes p in pieces of uneven sizes, none of them aligned
// with syncStep, as the trace encoder hands over its chunks.
func writeInPieces(w io.Writer, p []byte) error {
	for piece := 1000; len(p) > 0; piece = piece*3%(1<<20) + 4093 {
		n := min(piece, len(p))
		if _, err := w.Write(p[:n]); err != nil {
			return err
		}
		p = p[n:]
	}
	return nil
}

// tempFiles lists what WriteFile may have left in dir.
func tempFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var tmps []string
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			tmps = append(tmps, e.Name())
		}
	}
	return tmps
}

// TestWriteFileAcrossSyncSteps: a payload several sync steps long, and the
// edge cases, exactly one step and nothing at all, read back byte for byte.
func TestWriteFileAcrossSyncSteps(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []int{0, syncStep, 3*syncStep + syncStep/2} {
		path := filepath.Join(dir, fmt.Sprint(n))
		want := payload(n)
		if err := WriteFile(path, func(w io.Writer) error { return writeInPieces(w, want) }); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%d-byte payload read back as %d bytes, or differs", n, len(got))
		}
	}
	if tmps := tempFiles(t, dir); len(tmps) > 0 {
		t.Errorf("temp files left: %v", tmps)
	}
}

// TestSyncStartsEachStep: the writer starts a background sync once a step
// has gone out, not before, and waiting for it leaves none in flight.
func TestSyncStartsEachStep(t *testing.T) {
	f, err := os.Create(filepath.Join(t.TempDir(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := &syncingWriter{f: f}
	step := payload(syncStep)
	if _, err := w.Write(step[:syncStep-1]); err != nil || w.inflight != nil {
		t.Fatalf("a sync in flight (%v) before a whole step went out, err %v", w.inflight != nil, err)
	}
	if _, err := w.Write(step[syncStep-1:]); err != nil || w.inflight == nil || w.unsynced != 0 {
		t.Fatalf("no sync in flight after a whole step (unsynced %d), err %v", w.unsynced, err)
	}
	if err := w.wait(); err != nil || w.inflight != nil {
		t.Fatalf("wait: %v, in flight %v", err, w.inflight != nil)
	}
}

// TestWriteErrorAfterSyncLeavesTargetUntouched: a callback that fails once
// a background sync has started leaves the old target and no temp file.
func TestWriteErrorAfterSyncLeavesTargetUntouched(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.json")
	if err := WriteFileBytes(path, []byte("original complete artifact")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("encoder failed")
	err := WriteFile(path, func(w io.Writer) error {
		if err := writeInPieces(w, payload(syncStep+syncStep/3)); err != nil {
			return err
		}
		if sw, ok := w.(*syncingWriter); !ok || sw.inflight == nil {
			t.Errorf("no background sync in flight after a step")
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "original complete artifact" {
		t.Fatalf("target damaged by failed write: %.40q", got)
	}
	if tmps := tempFiles(t, dir); len(tmps) > 0 {
		t.Errorf("temp files left: %v", tmps)
	}
}

// TestWriteFileLeavesNoGoroutine: the background syncs end before WriteFile
// returns, on success and on error. A goroutine that has handed over its
// result may take a moment to be gone from the count, so the count is read
// until it is back to where it was, for at most a second.
func TestWriteFileLeavesNoGoroutine(t *testing.T) {
	dir := t.TempDir()
	before := runtime.NumGoroutine()
	data := payload(3 * syncStep)
	if err := WriteFile(filepath.Join(dir, "ok"), func(w io.Writer) error { return writeInPieces(w, data) }); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := WriteFile(filepath.Join(dir, "failed"), func(w io.Writer) error {
		writeInPieces(w, data)
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if after > before {
		t.Errorf("%d goroutines before WriteFile, %d after", before, after)
	}
}
