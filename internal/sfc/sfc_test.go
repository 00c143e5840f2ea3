package sfc

import (
	"testing"
	"testing/quick"
)

// keyEnd is one past the largest valid key.
const keyEnd Key = 1 << (3 * BitsPerDim)

func TestEncodeDecodeRoundtrip(t *testing.T) {
	f := func(x, y, z uint32) bool {
		ix, iy, iz := x&MaxCoord, y&MaxCoord, z&MaxCoord
		gx, gy, gz := Decode3D(Encode3D(ix, iy, iz))
		return gx == ix && gy == iy && gz == iz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestEncodeCorners(t *testing.T) {
	if Encode3D(0, 0, 0) != 0 {
		t.Error("origin key not 0")
	}
	k := Encode3D(MaxCoord, MaxCoord, MaxCoord)
	if k != keyEnd-1 {
		t.Errorf("max corner key = %d, want %d", k, keyEnd-1)
	}
}

func TestKeyOfWithinBounds(t *testing.T) {
	b := NewCube(0, 1)
	f := func(x, y, z float64) bool {
		// Wrap arbitrary floats into [0, 1).
		wx, wy, wz := b.Wrap(x, y, z)
		k := b.KeyOf(wx, wy, wz)
		return k < keyEnd
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeEdges(t *testing.T) {
	b := NewCube(0, 1)
	ix, iy, iz := b.Coord(0, 0.5, 1.0)
	if ix != 0 {
		t.Errorf("coord at 0 = %d", ix)
	}
	if iz != MaxCoord {
		t.Errorf("coord at max edge = %d, want %d", iz, MaxCoord)
	}
	if iy != MaxCoord/2 && iy != MaxCoord/2+1 {
		t.Errorf("coord at middle = %d", iy)
	}
	// Out-of-box coordinates clamp rather than wrap at quantization.
	ox, _, _ := b.Coord(-5, 0, 0)
	if ox != 0 {
		t.Errorf("below-box coord = %d, want 0", ox)
	}
}

func TestSpatialLocality(t *testing.T) {
	// Points in the same octant share the top three key bits.
	b := NewCube(0, 1)
	octant := func(x, y, z float64) Key { return b.KeyOf(x, y, z) >> (3 * (BitsPerDim - 1)) }
	if octant(0.1, 0.1, 0.1) != octant(0.2, 0.2, 0.2) {
		t.Error("nearby points should fall in the same octant")
	}
	if octant(0.1, 0.1, 0.1) == octant(0.9, 0.9, 0.9) {
		t.Error("opposite corners should fall in different octants")
	}
}

func TestPeriodicWrap(t *testing.T) {
	b := NewPeriodicCube(0, 1)
	x, y, z := b.Wrap(1.25, -0.25, 0.5)
	if x != 0.25 || y != 0.75 || z != 0.5 {
		t.Errorf("Wrap = (%v, %v, %v)", x, y, z)
	}
	// Non-periodic boxes clamp.
	nb := NewCube(0, 1)
	cx, _, _ := nb.Wrap(1.25, 0.5, 0.5)
	if cx != 1 {
		t.Errorf("clamp = %v, want 1", cx)
	}
}

func TestBoxGeometry(t *testing.T) {
	b := Box{Xmin: 0, Xmax: 2, Ymin: -1, Ymax: 1, Zmin: 0, Zmax: 0.5}
	if b.Lx() != 2 || b.Ly() != 2 || b.Lz() != 0.5 {
		t.Error("extent mismatch")
	}
	if b.Volume() != 2 {
		t.Errorf("Volume = %v", b.Volume())
	}
	if b.MinExtent() != 0.5 {
		t.Errorf("MinExtent = %v", b.MinExtent())
	}
}

// compactBits is the inverse of spreadBits.
func compactBits(x uint64) uint64 {
	x &= 0x1249249249249249
	x = (x ^ x>>2) & 0x10C30C30C30C30C3
	x = (x ^ x>>4) & 0x100F00F00F00F00F
	x = (x ^ x>>8) & 0x1F0000FF0000FF
	x = (x ^ x>>16) & 0x1F00000000FFFF
	x = (x ^ x>>32) & 0x1FFFFF
	return x
}

// Decode3D recovers the integer coordinates from a Morton key.
func Decode3D(k Key) (ix, iy, iz uint32) {
	ix = uint32(compactBits(uint64(k) >> 2))
	iy = uint32(compactBits(uint64(k) >> 1))
	iz = uint32(compactBits(uint64(k)))
	return
}
