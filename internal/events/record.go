package events

import (
	"encoding/binary"
	"math"
)

// The ledger keeps each event as a packed byte record, not as an Event: a
// frequency decision, most of a tuned run's rows, is some 35 bytes where
// the Event it came from is 152, and the ring holds no pointer for the
// garbage collector to scan. A record holds every field of its event
// exactly except Seq, which the ledger derives from the record's place:
//
//	flags   one byte: bit i set when the i-th of TimeS, PredTimeS,
//	        PredEnergyJ, PredPowerW, PredEDPJs and Value has non-zero
//	        bits (so -0 and NaN payloads are kept); bits 6 and 7 are 0
//	type    one byte: 1 + the index of a builtin Type, or 0 and the type
//	        as text
//	ints    Step, Rank, RequestedMHz, AppliedMHz as zigzag varints
//	texts   Subject, Detail, Err, each a uvarint length and its bytes
//	floats  the flagged floats' IEEE bits, 8 bytes little-endian each
//
// Strings are inline, so a bounded ring stays bounded: there is no table
// of them that grows with the run. The ledger's preamble and ring are
// blocks.Records stores, each record behind its length, which is how a
// full ring finds the end of the oldest one to drop.

// recordFloats returns the pointers to ev's float fields in record order.
func recordFloats(ev *Event) [6]*float64 {
	return [6]*float64{&ev.TimeS, &ev.PredTimeS, &ev.PredEnergyJ, &ev.PredPowerW, &ev.PredEDPJs, &ev.Value}
}

// appendRecord appends ev's record to b, without its length prefix.
func appendRecord(b []byte, ev *Event) []byte {
	var floats [6]uint64
	var flags byte
	for i, f := range [...]float64{ev.TimeS, ev.PredTimeS, ev.PredEnergyJ, ev.PredPowerW, ev.PredEDPJs, ev.Value} {
		if floats[i] = math.Float64bits(f); floats[i] != 0 {
			flags |= 1 << i
		}
	}
	code := typeCode(ev.Type)
	b = append(b, flags, code)
	if code == 0 {
		b = appendText(b, string(ev.Type))
	}
	for _, n := range [...]int{ev.Step, ev.Rank, ev.RequestedMHz, ev.AppliedMHz} {
		b = binary.AppendVarint(b, int64(n))
	}
	b = appendText(appendText(appendText(b, ev.Subject), ev.Detail), ev.Err)
	for _, f := range floats {
		if f != 0 {
			b = binary.LittleEndian.AppendUint64(b, f)
		}
	}
	return b
}

// typeCode is t's type byte: 1 + its index among the builtin types, or 0
// for a type no constant names.
func typeCode(t Type) byte {
	for i, bt := range builtinTypes {
		if t == bt {
			return byte(i + 1)
		}
	}
	return 0
}

func appendText(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// recordDecoder turns records back into events. Strings are interned: a
// ledger repeats a few dozen types, subjects and details thousands of
// times, so decoding a whole ring allocates once per distinct string.
type recordDecoder struct {
	names map[string]string
}

// decode sets ev to the event rec was made from, numbered seq.
func (d *recordDecoder) decode(rec []byte, seq uint64, ev *Event) {
	flags, code := rec[0], rec[1]
	rec = rec[2:]
	*ev = Event{Seq: seq}
	if code == 0 {
		var t string
		t, rec = d.text(rec)
		ev.Type = Type(t)
	} else {
		ev.Type = builtinTypes[code-1]
	}
	for _, n := range [...]*int{&ev.Step, &ev.Rank, &ev.RequestedMHz, &ev.AppliedMHz} {
		v, k := binary.Varint(rec)
		*n, rec = int(v), rec[k:]
	}
	ev.Subject, rec = d.text(rec)
	ev.Detail, rec = d.text(rec)
	ev.Err, rec = d.text(rec)
	for i, f := range recordFloats(ev) {
		if flags&(1<<i) != 0 {
			*f, rec = math.Float64frombits(binary.LittleEndian.Uint64(rec)), rec[8:]
		}
	}
}

// text reads one length-prefixed string off the front of rec.
func (d *recordDecoder) text(rec []byte) (string, []byte) {
	n, k := binary.Uvarint(rec)
	txt, rest := rec[k:k+int(n)], rec[k+int(n):]
	if n == 0 {
		return "", rest
	}
	if s, ok := d.names[string(txt)]; ok {
		return s, rest
	}
	s := string(txt)
	d.names[s] = s
	return s, rest
}
