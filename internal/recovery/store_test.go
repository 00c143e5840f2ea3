package recovery

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testPayload(n int, tag byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i)*7 + tag
	}
	return b
}

func savePayload(t *testing.T, s *Store, m Meta, payload []byte) string {
	t.Helper()
	path, err := s.Save(m, func(w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	if err != nil {
		t.Fatalf("save step %d: %v", m.Step, err)
	}
	return path
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	meta := Meta{Step: 42, TimeS: 17.25e-3}
	payload := testPayload(513, 1)
	path := savePayload(t, s, meta, payload)

	m, got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if m != meta {
		t.Fatalf("meta round-trip: got %+v want %+v", m, meta)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload round-trip mismatch")
	}

	snaps := s.Snapshots()
	if len(snaps) != 1 || snaps[0].Meta != meta || snaps[0].Path != path {
		t.Fatalf("Snapshots: %+v", snaps)
	}
}

func TestStoreRotationKeepsNewest(t *testing.T) {
	s, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	for step := 1; step <= 7; step++ {
		savePayload(t, s, Meta{Step: step}, testPayload(64, byte(step)))
	}
	snaps := s.Snapshots()
	if len(snaps) != 3 {
		t.Fatalf("kept %d snapshots, want 3", len(snaps))
	}
	for i, want := range []int{5, 6, 7} {
		if snaps[i].Meta.Step != want {
			t.Fatalf("snapshot %d is step %d, want %d", i, snaps[i].Meta.Step, want)
		}
	}
	// Saving the same step again replaces in place, not grows.
	savePayload(t, s, Meta{Step: 7}, testPayload(64, 99))
	if got := len(s.Snapshots()); got != 3 {
		t.Fatalf("re-save grew store to %d", got)
	}
}

// TestStoreBitFlipDetectedAndFallsBack flips one byte at a sweep of
// offsets covering every header field and the payload, and asserts each
// flip (a) fails Load with a recovery error and (b) makes Latest fall
// back to the previous valid snapshot while reporting the corrupt one.
func TestStoreBitFlipDetectedAndFallsBack(t *testing.T) {
	offsets := []struct {
		off  int
		want string // substring of the Load error
	}{
		{1, "bad magic"},                 // magic
		{5, "header checksum mismatch"},  // version (CRC trips first)
		{10, "header checksum mismatch"}, // step
		{20, "header checksum mismatch"}, // time
		{26, "header checksum mismatch"}, // payload length
		{44, "header checksum mismatch"}, // digest
		{50, "header checksum mismatch"}, // digest
		{60, "header checksum mismatch"}, // digest
		{65, "header checksum mismatch"}, // the CRC itself
		{headerSize, "payload digest mismatch"},
		{89, "payload digest mismatch"},
		{92, "payload digest mismatch"},
		{192, "payload digest mismatch"},
		{347, "payload digest mismatch"}, // the last payload byte
	}
	const payloadLen = 347 - headerSize + 1
	for _, tc := range offsets {
		t.Run(fmt.Sprintf("off%d", tc.off), func(t *testing.T) {
			s, err := Open(t.TempDir(), 3)
			if err != nil {
				t.Fatal(err)
			}
			oldPayload := testPayload(payloadLen, 1)
			savePayload(t, s, Meta{Step: 3, TimeS: 1}, oldPayload)
			newPath := savePayload(t, s, Meta{Step: 5, TimeS: 2}, testPayload(payloadLen, 2))

			raw, err := os.ReadFile(newPath)
			if err != nil {
				t.Fatal(err)
			}
			raw[tc.off] ^= 0x40
			if err := os.WriteFile(newPath, raw, 0o644); err != nil {
				t.Fatal(err)
			}

			if _, _, err := Load(newPath); err == nil {
				t.Fatalf("Load accepted snapshot with byte %d flipped", tc.off)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("flip at %d: error %q, want substring %q", tc.off, err, tc.want)
			}

			snap, payload, skipped, ok := s.Latest()
			if !ok || snap.Meta.Step != 3 {
				t.Fatalf("Latest did not fall back: ok=%v snap=%+v", ok, snap)
			}
			if !bytes.Equal(payload, oldPayload) {
				t.Fatal("fallback payload mismatch")
			}
			if err, reported := skipped[newPath]; !reported {
				t.Fatalf("corrupt snapshot not reported in skipped: %v", skipped)
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("skipped error %q, want substring %q", err, tc.want)
			}
		})
	}
}

// TestStoreTruncationAtEveryByte cuts a snapshot file at every possible
// length and asserts no cut is ever accepted as valid — the same
// byte-by-byte technique traceanalysis uses for lenient trace loading,
// here proving the strict side.
func TestStoreTruncationAtEveryByte(t *testing.T) {
	s, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	payload := testPayload(128, 7)
	path := savePayload(t, s, Meta{Step: 9, TimeS: 3}, payload)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cut := filepath.Join(dir, "cut.sprc")
	for n := 0; n < len(raw); n++ {
		if err := os.WriteFile(cut, raw[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := Load(cut)
		if err == nil {
			t.Fatalf("cut at %d of %d bytes loaded successfully", n, len(raw))
		}
		var want string
		switch {
		case n < headerSize:
			want = "truncated header"
		default:
			want = "truncated payload"
		}
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("cut at %d: error %q, want substring %q", n, err, want)
		}
	}
	// The uncut file still loads.
	if _, got, err := Load(path); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("uncut snapshot broken: %v", err)
	}
}

// TestStoreVersionMismatch hand-crafts a version-1 header with a valid
// CRC so the version check itself (not the checksum) rejects it with the
// documented message.
func TestStoreVersionMismatch(t *testing.T) {
	s, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	path := savePayload(t, s, Meta{Step: 2}, testPayload(32, 4))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	le.PutUint32(raw[4:8], 1)                              // the format before this one
	le.PutUint32(raw[64:68], crc32.ChecksumIEEE(raw[:64])) // keep header CRC valid
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, err = Load(path)
	if err == nil {
		t.Fatal("Load accepted a version-1 snapshot")
	}
	want := "unsupported snapshot version 1 (this build reads version 2)"
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q, want substring %q", err, want)
	}
}

func TestStoreLatestEmptyAndAllCorrupt(t *testing.T) {
	s, err := Open(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, ok := s.Latest(); ok {
		t.Fatal("Latest on empty store reported a snapshot")
	}

	// Every snapshot corrupt: Latest must report all of them and no payload.
	p1 := savePayload(t, s, Meta{Step: 1}, testPayload(16, 1))
	p2 := savePayload(t, s, Meta{Step: 2}, testPayload(16, 2))
	for _, p := range []string{p1, p2} {
		raw, _ := os.ReadFile(p)
		raw[len(raw)-1] ^= 0xff
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, _, skipped, ok := s.Latest()
	if ok {
		t.Fatal("Latest accepted a corrupt snapshot")
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped %d snapshots, want 2: %v", len(skipped), skipped)
	}
}

func TestStoreIgnoresForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"notes.txt", "ckpt-abc.sprc", "ckpt-000000000001.bak"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	savePayload(t, s, Meta{Step: 1}, testPayload(8, 1))
	if got := len(s.Snapshots()); got != 1 {
		t.Fatalf("foreign files counted as snapshots: %d", got)
	}
	snap, _, _, ok := s.Latest()
	if !ok || snap.Meta.Step != 1 {
		t.Fatalf("Latest: ok=%v %+v", ok, snap)
	}
}

// Snapshots returns the snapshots present on disk, oldest first, without
// verifying payload integrity (use Load for that).
func (s *Store) Snapshots() []Snapshot {
	var out []Snapshot
	for _, step := range s.steps() {
		path := filepath.Join(s.dir, snapName(step))
		m, _, _, err := readHeader(path)
		if err != nil {
			// Keep the entry with what the filename tells us; Load will
			// report the precise corruption.
			m = Meta{Step: step}
		}
		out = append(out, Snapshot{Path: path, Meta: m})
	}
	return out
}

func readHeader(path string) (Meta, int, [32]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return Meta{}, 0, [32]byte{}, err
	}
	defer f.Close()
	buf := make([]byte, headerSize)
	if _, err := io.ReadFull(f, buf); err != nil {
		return Meta{}, 0, [32]byte{}, fmt.Errorf("recovery: read header of %s: %w", filepath.Base(path), err)
	}
	return decodeHeader(buf)
}
