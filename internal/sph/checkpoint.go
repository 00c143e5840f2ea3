package sph

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"sphenergy/internal/atomicio"
)

// Checkpoint I/O: production SPH codes periodically dump the particle state
// so long campaigns survive job limits and failures. The format is a
// little-endian binary stream with a magic header, the integrator clock,
// all SoA fields, and a trailing CRC32 so truncated or corrupted files are
// detected on load.

// Version history:
//
//	1 — particles + integrator clock
//	2 — appends the SFC reorder clock and the Verlet-skin reference
//	    snapshot (positions + smoothing lengths the candidate list was
//	    built from), so restarted runs replay the same rebuild/reorder
//	    steps bit-identically. The candidate indices themselves are a pure
//	    function of the snapshot and are regenerated on restore. Version-1
//	    files still load.
const (
	checkpointMagic   = "SPHX"
	checkpointVersion = 2
)

// fieldSlices returns every float64 field in a fixed serialization order.
func (p *Particles) fieldSlices() [][]float64 {
	return [][]float64{
		p.X, p.Y, p.Z, p.VX, p.VY, p.VZ, p.AX, p.AY, p.AZ,
		p.M, p.H, p.Rho, p.P, p.C, p.U, p.DU,
		p.XM, p.Kx, p.Gradh,
		p.C11, p.C12, p.C13, p.C22, p.C23, p.C33,
		p.DivV, p.CurlV, p.Alpha,
	}
}

// WriteCheckpoint serializes the full simulation state (particles plus the
// integrator clock) to w.
func (s *State) WriteCheckpoint(w io.Writer) error {
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))

	if _, err := bw.WriteString(checkpointMagic); err != nil {
		return fmt.Errorf("sph: checkpoint: %w", err)
	}
	head := []interface{}{
		uint32(checkpointVersion),
		uint64(s.P.N),
		s.Time, s.Dt,
		uint64(s.Step),
	}
	for _, v := range head {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("sph: checkpoint: %w", err)
		}
	}
	for _, f := range s.P.fieldSlices() {
		if err := binary.Write(bw, binary.LittleEndian, f); err != nil {
			return fmt.Errorf("sph: checkpoint: %w", err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, s.P.NC); err != nil {
		return fmt.Errorf("sph: checkpoint: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, s.P.Keys); err != nil {
		return fmt.Errorf("sph: checkpoint: %w", err)
	}
	if err := binary.Write(bw, binary.LittleEndian, int64(s.LastReorderStep)); err != nil {
		return fmt.Errorf("sph: checkpoint: %w", err)
	}
	hasSkin := uint8(0)
	if s.List.hasRefs(s.P.N) {
		hasSkin = 1
	}
	if err := binary.Write(bw, binary.LittleEndian, hasSkin); err != nil {
		return fmt.Errorf("sph: checkpoint: %w", err)
	}
	if hasSkin == 1 {
		nl := s.List
		skin := []interface{}{int64(nl.BuildStep), nl.RefX, nl.RefY, nl.RefZ, nl.RefH}
		for _, v := range skin {
			if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
				return fmt.Errorf("sph: checkpoint: %w", err)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("sph: checkpoint: %w", err)
	}
	// Trailing checksum over everything written so far (not itself).
	if err := binary.Write(w, binary.LittleEndian, crc.Sum32()); err != nil {
		return fmt.Errorf("sph: checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint deserializes a checkpoint written by WriteCheckpoint,
// returning a fresh State carrying the restored particles and clock. opt
// supplies the (non-serialized) pipeline configuration. The whole stream is
// read into memory so the trailing CRC32 can be verified before any field
// is trusted.
func ReadCheckpoint(r io.Reader, opt Options) (*State, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("sph: checkpoint: %w", err)
	}
	if len(raw) < len(checkpointMagic)+4+8+8+8+8+4 {
		return nil, fmt.Errorf("sph: checkpoint: file too short (%d bytes)", len(raw))
	}
	payload := raw[:len(raw)-4]
	want := binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, fmt.Errorf("sph: checkpoint: checksum mismatch (corrupt or truncated file)")
	}

	br := bytes.NewReader(payload)
	magic := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("sph: checkpoint: %w", err)
	}
	if string(magic) != checkpointMagic {
		return nil, fmt.Errorf("sph: checkpoint: bad magic %q", magic)
	}
	var version uint32
	if err := binary.Read(br, binary.LittleEndian, &version); err != nil {
		return nil, fmt.Errorf("sph: checkpoint: %w", err)
	}
	if version != 1 && version != checkpointVersion {
		return nil, fmt.Errorf("sph: checkpoint: unsupported version %d", version)
	}
	var n uint64
	var timeS, dt float64
	var step uint64
	for _, v := range []interface{}{&n, &timeS, &dt, &step} {
		if err := binary.Read(br, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("sph: checkpoint: %w", err)
		}
	}
	const maxParticles = 1 << 31
	if n == 0 || n > maxParticles {
		return nil, fmt.Errorf("sph: checkpoint: implausible particle count %d", n)
	}
	p := NewParticles(int(n))
	for _, f := range p.fieldSlices() {
		if err := binary.Read(br, binary.LittleEndian, f); err != nil {
			return nil, fmt.Errorf("sph: checkpoint: %w", err)
		}
	}
	if err := binary.Read(br, binary.LittleEndian, p.NC); err != nil {
		return nil, fmt.Errorf("sph: checkpoint: %w", err)
	}
	if err := binary.Read(br, binary.LittleEndian, p.Keys); err != nil {
		return nil, fmt.Errorf("sph: checkpoint: %w", err)
	}
	st := NewState(p, opt)
	st.Time = timeS
	st.Dt = dt
	st.Step = int(step)
	if version >= 2 {
		var lastReorder int64
		if err := binary.Read(br, binary.LittleEndian, &lastReorder); err != nil {
			return nil, fmt.Errorf("sph: checkpoint: %w", err)
		}
		st.LastReorderStep = int(lastReorder)
		var hasSkin uint8
		if err := binary.Read(br, binary.LittleEndian, &hasSkin); err != nil {
			return nil, fmt.Errorf("sph: checkpoint: %w", err)
		}
		if hasSkin == 1 {
			nl := &NeighborList{Ngmax: opt.ngmax()}
			var buildStep int64
			if err := binary.Read(br, binary.LittleEndian, &buildStep); err != nil {
				return nil, fmt.Errorf("sph: checkpoint: %w", err)
			}
			nl.BuildStep = int(buildStep)
			nl.RefX = make([]float64, n)
			nl.RefY = make([]float64, n)
			nl.RefZ = make([]float64, n)
			nl.RefH = make([]float64, n)
			for _, f := range [][]float64{nl.RefX, nl.RefY, nl.RefZ, nl.RefH} {
				if err := binary.Read(br, binary.LittleEndian, f); err != nil {
					return nil, fmt.Errorf("sph: checkpoint: %w", err)
				}
			}
			// The candidate shells are regenerated from the snapshot on the
			// next FindNeighbors; until then only the references are valid.
			st.List = nl
		}
	} else if k := opt.ReorderEvery; k > 0 && st.Step > 0 {
		// Version-1 files predate the reorder clock; pre-PR runs reordered
		// at the start of every step that is a multiple of ReorderEvery,
		// which this reproduces (a resume landing exactly on a multiple
		// still has that reorder ahead of it).
		if st.Step%k == 0 {
			st.LastReorderStep = st.Step - k
		} else {
			st.LastReorderStep = st.Step - st.Step%k
		}
	}
	if br.Len() != 0 {
		return nil, fmt.Errorf("sph: checkpoint: %d trailing bytes", br.Len())
	}
	return st, nil
}

// SaveCheckpointFile writes the checkpoint to a file, atomically: a kill
// mid-write leaves any previous checkpoint at path intact.
func (s *State) SaveCheckpointFile(path string) error {
	if err := atomicio.WriteFile(path, s.WriteCheckpoint); err != nil {
		return fmt.Errorf("sph: checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpointFile reads a checkpoint from a file.
func LoadCheckpointFile(path string, opt Options) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("sph: checkpoint: %w", err)
	}
	defer f.Close()
	return ReadCheckpoint(f, opt)
}
