// Package recovery makes long runs durable and self-healing: a Store
// persists periodic checkpoints with integrity checking and retention, a
// Controller drives autosave/budget/stop decisions at step boundaries, and
// Supervise wraps the runner with bounded restarts so a crashed or
// preempted run resumes from the newest valid snapshot instead of losing
// every joule spent so far. Supervise calls each attempt on its caller's
// goroutine and restarts at once: a resumed run replays its recorded steps
// bit for bit, so there is nothing to wait out between attempts.
//
// The Store is payload-agnostic: callers hand it an opaque byte stream
// (the core runner's model checkpoint) plus a small Meta describing where
// in the run it was taken. Each snapshot file carries a checksummed header
// — magic, format version, the Meta clocks, payload length, and a SHA-256
// digest of the payload — so corruption and truncation are detected on
// read, and Latest falls back to the newest snapshot that still verifies.
package recovery

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"sphenergy/internal/atomicio"
)

// Envelope format constants. The header is fixed-size, little-endian, and
// protected by its own CRC32 so a damaged header is distinguishable from a
// damaged payload; the payload is protected by the SHA-256 digest carried
// in the header. Version 2 dropped three producer clocks (RNG, rebuild and
// reorder) that no program wrote; a version-1 file is refused.
const (
	storeMagic   = "SPRC"
	storeVersion = 2
	headerSize   = 4 + 4 + 8 + 8 + 8 + 32 + 4 // magic..crc
	snapPrefix   = "ckpt-"
	snapSuffix   = ".sprc"
)

// Meta identifies where in the run a snapshot was taken: Step is the next
// step to execute after restore, TimeS the run's clock at that boundary.
// Anything else a producer needs to resume deterministically travels in its
// payload.
type Meta struct {
	Step  int
	TimeS float64
}

// Snapshot describes one snapshot file found in a Store.
type Snapshot struct {
	Path string
	Meta Meta
}

// Store is a directory of rotated, integrity-checked snapshot files.
// Saves are atomic (write-temp-fsync-rename), so a crash mid-save never
// damages earlier snapshots.
type Store struct {
	dir  string
	keep int
}

// DefaultKeep is the retention depth when the caller passes keep <= 0.
const DefaultKeep = 3

// Open creates (if needed) and opens a snapshot directory keeping the
// last keep snapshots (DefaultKeep when keep <= 0).
func Open(dir string, keep int) (*Store, error) {
	if dir == "" {
		return nil, errors.New("recovery: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("recovery: open store: %w", err)
	}
	if keep <= 0 {
		keep = DefaultKeep
	}
	return &Store{dir: dir, keep: keep}, nil
}

func snapName(step int) string {
	return fmt.Sprintf("%s%012d%s", snapPrefix, step, snapSuffix)
}

// snapStep parses the step out of a snapshot filename; ok is false for
// foreign files.
func snapStep(name string) (int, bool) {
	if !strings.HasPrefix(name, snapPrefix) || !strings.HasSuffix(name, snapSuffix) {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, snapPrefix), snapSuffix))
	if err != nil {
		return 0, false
	}
	return n, true
}

// encodeHeader serializes the envelope header (without payload).
func encodeHeader(m Meta, payloadLen int, digest [32]byte) []byte {
	buf := make([]byte, headerSize)
	copy(buf[0:4], storeMagic)
	le := binary.LittleEndian
	le.PutUint32(buf[4:8], storeVersion)
	le.PutUint64(buf[8:16], uint64(m.Step))
	le.PutUint64(buf[16:24], math.Float64bits(m.TimeS))
	le.PutUint64(buf[24:32], uint64(payloadLen))
	copy(buf[32:64], digest[:])
	le.PutUint32(buf[64:68], crc32.ChecksumIEEE(buf[:64]))
	return buf
}

// decodeHeader validates and parses an envelope header.
func decodeHeader(buf []byte) (Meta, int, [32]byte, error) {
	var digest [32]byte
	var m Meta
	if len(buf) < headerSize {
		return m, 0, digest, fmt.Errorf("recovery: truncated header (%d of %d bytes)", len(buf), headerSize)
	}
	if string(buf[0:4]) != storeMagic {
		return m, 0, digest, errors.New("recovery: bad magic (not a snapshot file)")
	}
	le := binary.LittleEndian
	if got, want := crc32.ChecksumIEEE(buf[:64]), le.Uint32(buf[64:68]); got != want {
		return m, 0, digest, fmt.Errorf("recovery: header checksum mismatch (got %08x, want %08x)", got, want)
	}
	if v := le.Uint32(buf[4:8]); v != storeVersion {
		return m, 0, digest, fmt.Errorf("recovery: unsupported snapshot version %d (this build reads version %d)", v, storeVersion)
	}
	m.Step = int(int64(le.Uint64(buf[8:16])))
	m.TimeS = math.Float64frombits(le.Uint64(buf[16:24]))
	payloadLen := int(le.Uint64(buf[24:32]))
	copy(digest[:], buf[32:64])
	return m, payloadLen, digest, nil
}

// Save durably writes a snapshot whose payload is produced by encode, then
// rotates out snapshots beyond the retention depth. It returns the final
// snapshot path. Saving an existing step replaces that snapshot.
func (s *Store) Save(m Meta, encode func(w io.Writer) error) (string, error) {
	var payload bytes.Buffer
	if err := encode(&payload); err != nil {
		return "", fmt.Errorf("recovery: encode snapshot: %w", err)
	}
	digest := sha256.Sum256(payload.Bytes())
	path := filepath.Join(s.dir, snapName(m.Step))
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write(encodeHeader(m, payload.Len(), digest)); err != nil {
			return err
		}
		_, err := w.Write(payload.Bytes())
		return err
	})
	if err != nil {
		return "", err
	}
	s.rotate()
	return path, nil
}

// rotate removes the oldest snapshots beyond the retention depth.
// Best-effort: rotation failures never fail a save.
func (s *Store) rotate() {
	steps := s.steps()
	for len(steps) > s.keep {
		os.Remove(filepath.Join(s.dir, snapName(steps[0])))
		steps = steps[1:]
	}
}

// steps lists the snapshot steps present on disk, ascending.
func (s *Store) steps() []int {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var steps []int
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if n, ok := snapStep(e.Name()); ok {
			steps = append(steps, n)
		}
	}
	sort.Ints(steps)
	return steps
}

// Load reads and fully verifies the snapshot at path: header magic,
// version, header CRC, payload length, and payload SHA-256. Any mismatch
// returns an error and no payload.
func Load(path string) (Meta, []byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("recovery: %w", err)
	}
	m, payloadLen, digest, err := decodeHeader(raw)
	if err != nil {
		return Meta{}, nil, fmt.Errorf("recovery: %s: %w", filepath.Base(path), err)
	}
	payload := raw[headerSize:]
	if len(payload) != payloadLen {
		return Meta{}, nil, fmt.Errorf("recovery: %s: truncated payload (%d of %d bytes)",
			filepath.Base(path), len(payload), payloadLen)
	}
	if got := sha256.Sum256(payload); got != digest {
		return Meta{}, nil, fmt.Errorf("recovery: %s: payload digest mismatch (corrupt snapshot)", filepath.Base(path))
	}
	return m, payload, nil
}

// Latest returns the newest snapshot that passes full verification,
// scanning newest-to-oldest and skipping corrupt or truncated files. It
// returns ok=false when no valid snapshot exists. Snapshots that failed
// verification are reported through skipped (path -> error) so callers
// can surface the fallback.
func (s *Store) Latest() (snap Snapshot, payload []byte, skipped map[string]error, ok bool) {
	steps := s.steps()
	skipped = map[string]error{}
	for i := len(steps) - 1; i >= 0; i-- {
		path := filepath.Join(s.dir, snapName(steps[i]))
		m, data, err := Load(path)
		if err != nil {
			skipped[path] = err
			continue
		}
		return Snapshot{Path: path, Meta: m}, data, skipped, true
	}
	return Snapshot{}, nil, skipped, false
}
