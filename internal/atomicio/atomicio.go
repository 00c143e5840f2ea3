// Package atomicio provides crash-safe file writes: content goes to a
// temporary file in the destination directory, is fsynced, and is renamed
// over the target only after every byte is durably on disk. A process that
// dies mid-write therefore never leaves a truncated or half-written
// artifact under the final name — the reader either sees the old complete
// file or the new complete file. Every file-writing exit of the repo
// (traces, metrics, event ledgers, reports, experiment figures) funnels
// through WriteFile.
//
// A long file is synced while it is written: each time syncStep bytes have
// gone out since the last sync started, WriteFile starts another on a
// goroutine of its own, one at a time, so the disk flushes the head of the
// file while the writer produces the rest, and the sync before the rename
// flushes only the tail.
package atomicio

import (
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
)

// syncStep is how many bytes WriteFile lets go out between two background
// syncs: a few milliseconds of writing. An observed run's report and event
// ledger (≈ 2.5 MB) stay under it, so of a bundle only the trace (≈ 12 MB)
// starts any.
const syncStep = 4 << 20

// WriteFile atomically replaces path with the bytes produced by write.
// The write callback receives a writer straight onto the temporary file,
// created in path's directory and not buffered: every Write is a system
// call, so writers batch their own output (the trace encoder hands over
// pieces of a few hundred events, the event ledger its whole export at
// once). Each syncStep bytes, a sync of what has been written starts in
// the background unless one is still in flight. WriteFile waits for the
// one in flight on every path, and its error is WriteFile's. On success
// the temp file is synced, closed, and renamed over path. On any error
// (from write, a sync, close, or rename) the temp file is removed and path
// is left untouched. A new file gets the mode os.Create would give it.
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
	w := &syncingWriter{f: tmp}
	err = write(w)
	if serr := w.wait(); err == nil && serr != nil {
		return fmt.Errorf("atomicio: sync %s: %w", path, serr)
	}
	if err != nil {
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

// WriteFileBytes is WriteFile for callers that already hold the content.
func WriteFileBytes(path string, data []byte) error {
	return WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// syncingWriter writes to f and starts a sync of f on a goroutine of its
// own each time syncStep bytes have gone out since the last one started. A
// step reached while a sync is in flight starts the next at the first
// Write after that one has ended; a sync that failed fails that Write.
type syncingWriter struct {
	f        *os.File
	unsynced int64      // bytes written since the last sync started
	inflight chan error // the running sync's result; nil when none runs
}

func (w *syncingWriter) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.unsynced += int64(n)
	if err != nil || w.unsynced < syncStep {
		return n, err
	}
	if w.inflight != nil {
		select {
		case err := <-w.inflight:
			w.inflight = nil
			if err != nil {
				return n, err
			}
		default:
			return n, nil
		}
	}
	done := make(chan error, 1)
	go func() { done <- w.f.Sync() }()
	w.inflight, w.unsynced = done, 0
	return n, nil
}

// wait waits for the sync in flight, if any, and returns its error.
func (w *syncingWriter) wait() error {
	if w.inflight == nil {
		return nil
	}
	err := <-w.inflight
	w.inflight = nil
	return err
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
