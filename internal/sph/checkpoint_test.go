package sph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
)

func TestCheckpointRoundtrip(t *testing.T) {
	st := latticeState(6, t)
	// Evolve a little so every field carries non-trivial values.
	for i := 0; i < 3; i++ {
		st.RunStep(nil)
	}
	var buf bytes.Buffer
	if err := st.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()), st.Opt)
	if err != nil {
		t.Fatal(err)
	}
	if back.P.N != st.P.N || back.Time != st.Time || back.Dt != st.Dt || back.Step != st.Step {
		t.Fatalf("clock/meta mismatch: %+v vs %+v", back, st)
	}
	for i := 0; i < st.P.N; i++ {
		if back.P.X[i] != st.P.X[i] || back.P.U[i] != st.P.U[i] ||
			back.P.Rho[i] != st.P.Rho[i] || back.P.Alpha[i] != st.P.Alpha[i] ||
			back.P.NC[i] != st.P.NC[i] || back.P.Keys[i] != st.P.Keys[i] {
			t.Fatalf("particle %d fields lost", i)
		}
	}
}

func TestCheckpointResumeContinuesIdentically(t *testing.T) {
	// Running N steps straight equals running k, checkpointing, restoring
	// and running N-k: checkpoint/restart must not perturb the trajectory.
	straight := latticeState(6, t)
	for i := 0; i < 6; i++ {
		straight.RunStep(nil)
	}

	first := latticeState(6, t)
	for i := 0; i < 3; i++ {
		first.RunStep(nil)
	}
	var buf bytes.Buffer
	if err := first.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	resumed, err := ReadCheckpoint(&buf, first.Opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		resumed.RunStep(nil)
	}
	if resumed.Time != straight.Time {
		t.Fatalf("time diverged after restart: %v vs %v", resumed.Time, straight.Time)
	}
	for i := 0; i < straight.P.N; i++ {
		if resumed.P.X[i] != straight.P.X[i] || resumed.P.VX[i] != straight.P.VX[i] {
			t.Fatalf("trajectory diverged at particle %d after restart", i)
		}
	}
}

func TestCheckpointDetectsCorruption(t *testing.T) {
	st := latticeState(4, t)
	var buf bytes.Buffer
	if err := st.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Bit flip in the middle.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0x40
	if _, err := ReadCheckpoint(bytes.NewReader(corrupt), st.Opt); err == nil {
		t.Error("corrupted checkpoint accepted")
	}
	// Truncation.
	if _, err := ReadCheckpoint(bytes.NewReader(data[:len(data)-10]), st.Opt); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	// Wrong magic.
	bad := append([]byte(nil), data...)
	bad[0] = 'X'
	if _, err := ReadCheckpoint(bytes.NewReader(bad), st.Opt); err == nil {
		t.Error("bad magic accepted")
	}
	// Empty input.
	if _, err := ReadCheckpoint(bytes.NewReader(nil), st.Opt); err == nil {
		t.Error("empty checkpoint accepted")
	}
}

// TestCheckpointRefusesVersion1 patches a checkpoint's version field to 1
// under a recomputed CRC, so only the version check can refuse it, and
// expects an error naming both the version found and the one this build
// reads.
func TestCheckpointRefusesVersion1(t *testing.T) {
	st := latticeState(4, t)
	st.RunStep(nil)
	var buf bytes.Buffer
	if err := st.WriteCheckpoint(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	payload := data[:len(data)-4]
	binary.LittleEndian.PutUint32(payload[len(checkpointMagic):], 1)
	binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(payload))
	_, err := ReadCheckpoint(bytes.NewReader(data), st.Opt)
	if err == nil {
		t.Fatal("version-1 checkpoint accepted")
	}
	want := fmt.Sprintf("version 1, this build reads version %d", checkpointVersion)
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not contain %q", err, want)
	}
}
