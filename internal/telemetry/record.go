package telemetry

import (
	"encoding/binary"
	"math"
)

// A shard keeps each event as a packed byte record, not as a struct of its
// four floats, identity and phase: most of a run's events are spans that
// start where the one before them on their track ended, and carry no
// values, or one. A record holds every field of its event exactly:
//
//	head    one byte: the phase's code (bits 0-1: X, i, C, M), a bit each
//	        for durS, v0 and v1 having non-zero bits (so -0 and NaN
//	        payloads are kept), and a bit for an implied start: the start
//	        equals, bit for bit, the startS+durS of the record before it
//	        on its track, and is not NaN (of a sum of two NaNs, which one
//	        it keeps depends on the order the compiler adds them in)
//	ref     the identity's SpanRef as a uvarint
//	floats  the IEEE bits, 8 bytes little-endian each, of the start unless
//	        it is implied, then of durS, v0 and v1 where flagged
//
// Records lie in a blocks.Records store, which never splits one across two
// blocks, and a block's first record carries its start in full: a block
// decodes on its own, so the export encodes the blocks side by side.

// Bits of a record's head past its phase code.
const (
	durFlag = 1 << (iota + 2)
	v0Flag
	v1Flag
	impliedFlag
)

// maxRecord is the longest record: the head, a 32-bit ref and four floats.
const maxRecord = 1 + binary.MaxVarintLen32 + 4*8

// phases maps a phase code to its phase.
var phases = [4]byte{phaseComplete, phaseInstant, phaseCounter, phaseMeta}

// phaseCode is the code of phase ph, one of the four.
func phaseCode(ph byte) byte {
	switch ph {
	case phaseInstant:
		return 1
	case phaseCounter:
		return 2
	case phaseMeta:
		return 3
	}
	return 0
}

// event is one recorded event, decoded. Its identity (category, name,
// argument keys, constant string) lives in the tracer's descriptor table.
// Times are virtual simulation seconds; export converts to the
// microseconds Chrome expects.
type event struct {
	startS float64
	durS   float64
	v0, v1 float64
	ref    SpanRef
	ph     byte
}

// end is where the event ends: the start a record after it may imply.
func (ev *event) end() float64 { return ev.startS + ev.durS }

// add appends one event's record.
func (s *shard) add(ph byte, ref SpanRef, startS, durS, v0, v1 float64) {
	tail, fresh := s.recs.Tail(maxRecord)
	n := len(tail)
	b := tail[n : n+maxRecord]
	head := phaseCode(ph)
	k := 2
	if b[1] = byte(ref); ref >= 0x80 {
		k = 1 + binary.PutUvarint(b[1:], uint64(ref))
	}
	if start := math.Float64bits(startS); !fresh && start == math.Float64bits(s.end) && !math.IsNaN(startS) {
		head |= impliedFlag
	} else {
		binary.LittleEndian.PutUint64(b[k:], start)
		k += 8
	}
	k, head = putFloat(b, k, head, durFlag, durS)
	k, head = putFloat(b, k, head, v0Flag, v0)
	k, head = putFloat(b, k, head, v1Flag, v1)
	b[0] = head
	s.end = startS + durS
	s.recs.Commit(tail[:n+k])
}

// putFloat writes f's bits at b[k:] unless they are all zero, and then
// sets flag in head; it returns the offset past what it wrote and head.
func putFloat(b []byte, k int, head, flag byte, f float64) (int, byte) {
	if bits := math.Float64bits(f); bits != 0 {
		binary.LittleEndian.PutUint64(b[k:], bits)
		return k + 8, head | flag
	}
	return k, head
}

// decode sets ev to the record at b[at:], whose block's record before it
// ended at end, and returns the offset past it.
func (ev *event) decode(b []byte, at int, end float64) int {
	head, ref := b[at], uint64(b[at+1])
	if at += 2; ref >= 0x80 { // a ref past 127 takes more than one byte
		var k int
		ref, k = binary.Uvarint(b[at-1:])
		at += k - 1
	}
	ev.ph, ev.ref = phases[head&3], SpanRef(ref)
	ev.startS = end
	if head&impliedFlag == 0 {
		ev.startS, at = readFloat(b, at)
	}
	ev.durS, ev.v0, ev.v1 = 0, 0, 0
	if head&durFlag != 0 {
		ev.durS, at = readFloat(b, at)
	}
	if head&v0Flag != 0 {
		ev.v0, at = readFloat(b, at)
	}
	if head&v1Flag != 0 {
		ev.v1, at = readFloat(b, at)
	}
	return at
}

// readFloat reads the float whose bits are at b[at:] and returns the offset
// past it.
func readFloat(b []byte, at int) (float64, int) {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[at:])), at + 8
}
