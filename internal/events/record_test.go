package events

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"sphenergy/internal/blocks"
)

// HeldBytes returns the storage the ledger's records hold: every block of
// its preamble and its ring that holds records, whole. Exported so the
// external test package can weigh a real core.Run's ledger.
func HeldBytes(l *Ledger) int {
	n := 0
	for _, r := range []*blocks.Records{&l.pre, &l.ring} {
		for i := range r.Blocks() {
			n += cap(r.Block(i))
		}
	}
	return n
}

// RecordBytes returns how many bytes the ledger's records of type t take,
// length prefixes included, and how many there are.
func RecordBytes(l *Ledger, t Type) (bytes, n int) {
	code := typeCode(t)
	for _, r := range []*blocks.Records{&l.pre, &l.ring} {
		r.Each(func(rec []byte) {
			if rec[1] == code {
				bytes += len(binary.AppendUvarint(nil, uint64(len(rec)))) + len(rec)
				n++
			}
		})
	}
	return bytes, n
}

// sameEvent reports whether a and b are the same event bit for bit: floats
// by their IEEE bits, so -0 and NaN payloads count.
func sameEvent(a, b Event) bool {
	fa, fb := recordFloats(&a), recordFloats(&b)
	for i := range fa {
		if math.Float64bits(*fa[i]) != math.Float64bits(*fb[i]) {
			return false
		}
		*fa[i], *fb[i] = 0, 0
	}
	return a == b
}

// TestRotatingRingRecyclesBlocks: a full ring that rotates a steady mix of
// record sizes hands each block its front lets go of to its back, so tens
// of thousands of emits allocate nothing at all. They are counted as one
// run: AllocsPerRun truncates its average, and a ring that allocated a
// block every few hundred emits would average 0.
func TestRotatingRingRecyclesBlocks(t *testing.T) {
	l := NewLedger(1024)
	emit := func(i int) {
		l.Emit(decision(float64(i), i, i%8, "MomentumEnergy", 1110, 1005))
		l.Emit(Event{TimeS: float64(i), Step: i, Rank: -1, Type: StepDone, Value: float64(i) / 3})
	}
	for i := 0; i < 4096; i++ {
		emit(i)
	}
	if avg := testing.AllocsPerRun(1, func() {
		for i := 0; i < 20000; i++ {
			emit(i % 4096) // the warm-up's records again, sizes and all
		}
	}); avg != 0 {
		t.Errorf("40 000 emits into a full ring allocated %.0f times, want 0", avg)
	}
}

// drawEvent draws an event whose every field is one of the values a record
// must keep exactly — the ends of the integer range, -0, NaN, the
// infinities and subnormals, empty, long and invalid UTF-8 strings, custom
// types — or the fuzzer's own text and bits.
func drawEvent(rng *rand.Rand, text string, bits uint64) Event {
	ints := []int{0, 1, -1, 1005, math.MaxInt64, math.MinInt64, int(bits), rng.Intn(600) - 1}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef),
		math.Inf(1), math.Inf(-1), 5e-324, -2.2250738585072009e-308, math.Float64frombits(bits), rng.Float64()}
	texts := []string{"", "", text, "IAD", "bad\xffutf8\xc3", "\x00", string(FreqDecision)}
	text1 := func() string {
		if rng.Intn(32) == 0 { // longer than a block
			return strings.Repeat(text+"x", blocks.RecordBlock/(len(text)+1)+1+rng.Intn(64))
		}
		return texts[rng.Intn(len(texts))]
	}
	i := func() int { return ints[rng.Intn(len(ints))] }
	f := func() float64 {
		if rng.Intn(3) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return 0
	}
	ty := builtinTypes[rng.Intn(len(builtinTypes))]
	if rng.Intn(4) == 0 {
		ty = Type(text1())
	}
	return Event{TimeS: f(), Step: i(), Rank: i(), Type: ty, Subject: text1(), Detail: text1(),
		RequestedMHz: i(), AppliedMHz: i(), PredTimeS: f(), PredEnergyJ: f(), PredPowerW: f(),
		PredEDPJs: f(), Value: f(), Cached: rng.Intn(2) == 0, Err: text1()}
}

// FuzzLedgerRecord emits drawn events into a small ledger that pins a
// preamble (the run-start at emit sweep) and rotates the rest across block
// boundaries, and holds the events its records decode to to the ones
// emitted, bit for bit, numbered as Emit numbered them.
func FuzzLedgerRecord(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(3), uint16(400), "IAD", uint64(0))
	f.Add(int64(2), uint8(1), uint8(0), uint16(50), "bad\xffutf8", math.Float64bits(math.NaN())|1)
	f.Add(int64(3), uint8(40), uint8(39), uint16(3000), "", uint64(1))
	f.Add(int64(4), uint8(63), uint8(200), uint16(1000), "MomentumEnergy", uint64(math.MaxUint64))
	f.Add(int64(5), uint8(16), uint8(16), uint16(600), strings.Repeat("long ", 300), uint64(1)<<63)
	f.Fuzz(func(t *testing.T, seed int64, capacity, sweep uint8, n uint16, text string, bits uint64) {
		rng := rand.New(rand.NewSource(seed))
		capN := int(capacity%64) + 1
		l := NewLedger(capN)
		var emitted []Event
		for k := 0; k < int(n%4096); k++ {
			ev := drawEvent(rng, text, bits)
			if k == int(sweep) {
				ev.Type = RunStart
			}
			ev.Seq = uint64(rng.Int63()) // Emit numbers the event itself
			l.Emit(ev)
			ev.Seq = uint64(k + 1)
			emitted = append(emitted, ev)
		}

		// The first run-start pins what came before it if that leaves room.
		var want []Event
		rest := emitted
		pinned := 0
		for k, ev := range emitted {
			if ev.Type == RunStart {
				if k+1 < capN {
					pinned = k + 1
				}
				break
			}
		}
		want, rest = append(want, emitted[:pinned]...), emitted[pinned:]
		want = append(want, rest[max(0, len(rest)-(capN-pinned)):]...)

		got := retained(l)
		if len(got) != len(want) || l.Len() != len(want) {
			t.Fatalf("retained %d events (Len %d), want %d", len(got), l.Len(), len(want))
		}
		for k := range got {
			if !sameEvent(got[k], want[k]) {
				t.Fatalf("retained event %d is\n%+v, want\n%+v", k, got[k], want[k])
			}
		}
		if sum := l.Summary(); sum.Emitted != uint64(len(emitted)) || sum.Dropped != uint64(len(emitted)-len(want)) {
			t.Fatalf("summary %+v, want %d emitted and %d dropped", sum, len(emitted), len(emitted)-len(want))
		}
	})
}
