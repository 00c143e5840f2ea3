// Package sfc holds the simulation box (extents, periodicity, wrapping) and
// the space-filling curve over it: 63-bit Morton (Z-order) keys with 21 bits
// of resolution per dimension.
//
// Keys order particles along the Z-curve, so particles close in key are close
// in space; the SPH state is sorted by key to keep neighbors close in memory.
package sfc

import "math"

// BitsPerDim is the per-dimension key resolution. 3*21 = 63 bits fit a
// non-negative int64/uint64 key with one spare bit.
const BitsPerDim = 21

// MaxCoord is the largest integer coordinate representable per dimension.
const MaxCoord = (1 << BitsPerDim) - 1

// Key is a 63-bit Morton code.
type Key uint64

// Box is an axis-aligned cuboid domain. SFC keys are computed after
// normalizing positions into the unit cube spanned by the box, so slightly
// anisotropic domains are supported (each dimension is scaled independently).
type Box struct {
	Xmin, Ymin, Zmin float64
	Xmax, Ymax, Zmax float64
	// PBC enables periodic boundary conditions per dimension.
	PBCx, PBCy, PBCz bool
}

// NewCube returns a cubic box [lo, hi]^3 without periodicity.
func NewCube(lo, hi float64) Box {
	return Box{Xmin: lo, Ymin: lo, Zmin: lo, Xmax: hi, Ymax: hi, Zmax: hi}
}

// NewPeriodicCube returns a cubic box [lo, hi]^3 periodic in all dimensions.
func NewPeriodicCube(lo, hi float64) Box {
	b := NewCube(lo, hi)
	b.PBCx, b.PBCy, b.PBCz = true, true, true
	return b
}

// Lx returns the box extent in x.
func (b Box) Lx() float64 { return b.Xmax - b.Xmin }

// Ly returns the box extent in y.
func (b Box) Ly() float64 { return b.Ymax - b.Ymin }

// Lz returns the box extent in z.
func (b Box) Lz() float64 { return b.Zmax - b.Zmin }

// Volume returns the box volume.
func (b Box) Volume() float64 { return b.Lx() * b.Ly() * b.Lz() }

// MinExtent returns the smallest box dimension.
func (b Box) MinExtent() float64 {
	return math.Min(b.Lx(), math.Min(b.Ly(), b.Lz()))
}

// Wrap maps a coordinate into the box under periodic boundaries, leaving
// non-periodic dimensions clamped to the box.
func (b Box) Wrap(x, y, z float64) (float64, float64, float64) {
	x = wrap1(x, b.Xmin, b.Xmax, b.PBCx)
	y = wrap1(y, b.Ymin, b.Ymax, b.PBCy)
	z = wrap1(z, b.Zmin, b.Zmax, b.PBCz)
	return x, y, z
}

func wrap1(v, lo, hi float64, periodic bool) float64 {
	l := hi - lo
	if periodic {
		for v < lo {
			v += l
		}
		for v >= hi {
			v -= l
		}
		return v
	}
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// spreadBits inserts two zero bits between each of the low 21 bits of x.
func spreadBits(x uint64) uint64 {
	x &= 0x1FFFFF // 21 bits
	x = (x | x<<32) & 0x1F00000000FFFF
	x = (x | x<<16) & 0x1F0000FF0000FF
	x = (x | x<<8) & 0x100F00F00F00F00F
	x = (x | x<<4) & 0x10C30C30C30C30C3
	x = (x | x<<2) & 0x1249249249249249
	return x
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

// Encode3D interleaves three 21-bit integer coordinates into a Morton key.
func Encode3D(ix, iy, iz uint32) Key {
	return Key(spreadBits(uint64(ix))<<2 | spreadBits(uint64(iy))<<1 | spreadBits(uint64(iz)))
}

// Decode3D recovers the integer coordinates from a Morton key.
func Decode3D(k Key) (ix, iy, iz uint32) {
	ix = uint32(compactBits(uint64(k) >> 2))
	iy = uint32(compactBits(uint64(k) >> 1))
	iz = uint32(compactBits(uint64(k)))
	return
}

// Coord quantizes a position in the box to integer grid coordinates.
func (b Box) Coord(x, y, z float64) (uint32, uint32, uint32) {
	return quantize(x, b.Xmin, b.Xmax),
		quantize(y, b.Ymin, b.Ymax),
		quantize(z, b.Zmin, b.Zmax)
}

func quantize(v, lo, hi float64) uint32 {
	t := (v - lo) / (hi - lo)
	if t < 0 {
		t = 0
	}
	i := int64(t * (MaxCoord + 1))
	if i > MaxCoord {
		i = MaxCoord
	}
	return uint32(i)
}

// KeyOf computes the Morton key of a position in the box.
func (b Box) KeyOf(x, y, z float64) Key {
	ix, iy, iz := b.Coord(x, y, z)
	return Encode3D(ix, iy, iz)
}
