// Package atomicio provides crash-safe file writes: content goes to a
// temporary file in the destination directory, is fsynced, and is renamed
// over the target only after every byte is durably on disk. A process that
// dies mid-write therefore never leaves a truncated or half-written
// artifact under the final name — the reader either sees the old complete
// file or the new complete file. Every file-writing exit of the repo
// (traces, metrics, event ledgers, reports) funnels through WriteFile.
package atomicio

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
)

// WriteFile atomically replaces path with the bytes produced by write.
// The write callback receives the temporary file itself, created in
// path's directory and not buffered: every Write is a system call, so
// writers batch their own output (the trace encoder hands over pieces of
// a few hundred events, the event ledger its whole export at once). On
// success the temp file is synced, closed, and renamed over path. On any
// error (from write, sync, close, or rename) the temp file is removed and
// path is left untouched. A new file gets the mode os.Create would give it.
func WriteFile(path string, write func(w io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := createTemp(path)
	if err != nil {
		return fmt.Errorf("atomicio: create temp for %s: %w", path, err)
	}
	tmpName := tmp.Name()
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	if err = write(tmp); err != nil {
		return fmt.Errorf("atomicio: write %s: %w", path, err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("atomicio: sync %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("atomicio: close %s: %w", path, err)
	}
	if err = os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("atomicio: rename %s: %w", path, err)
	}
	syncDir(dir) // make the rename itself durable; best-effort on odd filesystems
	return nil
}

// createTemp creates a file of a fresh name beside path, with mode 0666
// before the umask, as os.Create does: the rename keeps the temp file's
// mode, and os.CreateTemp's 0600 would make every artifact owner-only.
func createTemp(path string) (*os.File, error) {
	prefix := filepath.Join(filepath.Dir(path), "."+filepath.Base(path)+".tmp-")
	for try := 0; ; try++ {
		name := prefix + strconv.FormatUint(uint64(rand.Uint32()), 10)
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if os.IsExist(err) && try < 10000 {
			continue
		}
		return f, err
	}
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Errors are ignored: some filesystems reject directory fsync, and the
// rename has already happened — the write is complete either way.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
