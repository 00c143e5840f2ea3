package telemetry

import (
	"bytes"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// HeldBytes returns the storage the tracer's records hold: every block of
// every shard, whole. Exported so the external test package can weigh a
// real core.Run's trace.
func HeldBytes(t *Tracer) int {
	n := 0
	for i := range t.shards {
		recs := &t.shards[i].recs
		for b := range recs.Blocks() {
			n += cap(recs.Block(b))
		}
	}
	return n
}

// RecordBytes returns how many bytes the tracer's records take, and how
// many of them imply their start.
func RecordBytes(t *Tracer) (bytes, implied int) {
	for i := range t.shards {
		recs := &t.shards[i].recs
		for b := range recs.Blocks() {
			block := recs.Block(b)
			bytes += len(block)
			var ev event
			for at, end := 0, 0.0; at < len(block); end = ev.end() {
				if block[at]&impliedFlag != 0 {
					implied++
				}
				at = ev.decode(block, at, end)
			}
		}
	}
	return bytes, implied
}

// sameBits reports whether a and b have the same IEEE bits.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireSameSpan fails unless got is want bit for bit: its floats by
// their IEEE bits, so -0 and NaN payloads count.
func requireSameSpan(t *testing.T, i int, got, want SpanEvent) {
	t.Helper()
	same := got.Track == want.Track && got.Category == want.Category && got.Name == want.Name &&
		got.Instant == want.Instant && sameBits(got.StartS, want.StartS) && sameBits(got.DurS, want.DurS) &&
		len(got.Args) == len(want.Args)
	for k := 0; same && k < len(got.Args); k++ {
		g, w := got.Args[k], want.Args[k]
		same = g.Key == w.Key && g.kind == w.kind && g.s == w.s && sameBits(g.f, w.f)
	}
	if !same {
		t.Fatalf("span %d reads back as\n%+v, recorded\n%+v", i, got, want)
	}
}

// FuzzTracerRecord records drawn events of all four phases on several
// tracks — refs below and above 127 and one the tracer never issued;
// values ±0, NaN payloads, subnormals and ±MaxFloat64; starts that do and
// do not equal the end of the event before them on their track; runs that
// cross block boundaries — and holds what the records decode to to what was
// recorded, bit for bit: Spans, ReadRecords resumed from every cursor it
// returns, and the export against the oracle's of the recorded events.
func FuzzTracerRecord(f *testing.F) {
	f.Add(int64(1), uint8(2), uint16(3000), uint64(0), uint8(1))
	f.Add(int64(2), uint8(0), uint16(40), math.Float64bits(math.NaN())|1, uint8(0))
	f.Add(int64(3), uint8(3), uint16(4000), uint64(1), uint8(200))
	f.Add(int64(4), uint8(1), uint16(1200), uint64(1)<<63, uint8(255))
	f.Add(int64(5), uint8(7), uint16(2500), math.Float64bits(math.MaxFloat64), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, ranks uint8, n uint16, bits uint64, chain uint8) {
		rng := rand.New(rand.NewSource(seed))
		nr := int(ranks%4) + 1
		tr := NewTracer(nr)
		refs := make([]SpanRef, 0, 201)
		for i := range 200 { // refs past 127 take two bytes
			name := "id" + strconv.Itoa(i)
			switch i % 4 {
			case 0:
				refs = append(refs, tr.Intern("kernel", name))
			case 1:
				refs = append(refs, tr.Intern("function", name, "gpu_j"))
			case 2:
				refs = append(refs, tr.Intern("kernel", name, "clock_mhz", "energy_j"))
			case 3:
				refs = append(refs, tr.InternWith("freq", name, "cause", "strategy", "mhz"))
			}
		}
		refs = append(refs, SpanRef(len(refs)+1000)) // never issued: read back by nothing

		// finite runs keep NaN and the infinities out of the export.
		finite := rng.Intn(4) != 0
		var times, values []float64
		times = []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, 1, 0.5, 1e-9, 3.25, rng.Float64()}
		values = append([]float64{math.MaxFloat64, -math.MaxFloat64, 1410, -2.2250738585072009e-308}, times...)
		if x := math.Float64frombits(bits); !finite || !(math.IsNaN(x) || math.IsInf(x, 0)) {
			values = append(values, x)
		}
		if !finite {
			nan := []float64{math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001), math.Inf(1)}
			times, values = append(times, nan...), append(values, nan...)
		}
		draw := func(pool []float64) float64 {
			if rng.Intn(3) == 0 {
				return 0
			}
			return pool[rng.Intn(len(pool))]
		}

		model := make([][]event, nr+1)
		for range int(n % 4096) {
			rank := rng.Intn(nr+2) - 1 // -1 and nr land on the global track
			tid := rank
			if rank < 0 || rank >= nr {
				tid = nr
			}
			ref := refs[rng.Intn(len(refs))]
			start := draw(times)
			// Most of a run's events start where the one before them ended.
			if last := len(model[tid]) - 1; last >= 0 && rng.Intn(256) < int(chain) {
				start = model[tid][last].end()
			}
			ev := event{ref: ref, startS: start, v0: draw(values), v1: draw(values)}
			switch rng.Intn(8) {
			case 0:
				ev.ph = phaseInstant
				tr.InstantRef(rank, ref, ev.startS, ev.v0, ev.v1)
			case 1:
				ev.ph = phaseCounter
				tr.CounterRef(rank, ref, ev.startS, ev.v0, ev.v1)
			case 2:
				name := strconv.Itoa(rng.Intn(3))
				ev = event{ph: phaseMeta, ref: tr.InternWith("", "thread_name", "name", name)}
				tr.SetTrackName(rank, name)
			default:
				ev.ph, ev.durS = phaseComplete, draw(times)
				tr.CompleteRef(rank, ref, ev.startS, ev.durS, ev.v0, ev.v1)
			}
			model[tid] = append(model[tid], ev)
		}

		total := 0
		var want []SpanEvent
		for tid, track := range model {
			total += len(track)
			for i := range track {
				if ev := &track[i]; int(ev.ref) < len(tr.descs) && readBack(ev.ph) {
					d := &tr.descs[ev.ref]
					want = append(want, ev.span(tr.track(tid), d, ev.appendArgs(nil, d)))
				}
			}
		}
		if tr.Len() != total {
			t.Fatalf("Len %d, recorded %d", tr.Len(), total)
		}
		got := tr.Spans()
		if len(got) != len(want) {
			t.Fatalf("Spans has %d events, recorded %d", len(got), len(want))
		}
		for i := range got {
			requireSameSpan(t, i, got[i], want[i])
		}

		for rank := range nr {
			var complete []event
			for _, ev := range model[rank] {
				if ev.ph == phaseComplete && int(ev.ref) < len(tr.descs) {
					complete = append(complete, ev)
				}
			}
			readFrom := func(c Cursor, budget int) (Cursor, []event) {
				var out []event
				next := tr.ReadRecords(rank, c, func(ref SpanRef, startS, durS, v0, v1 float64) bool {
					if budget == 0 {
						return false
					}
					budget--
					out = append(out, event{ph: phaseComplete, ref: ref, startS: startS, durS: durS, v0: v0, v1: v1})
					return true
				})
				return next, out
			}
			requireSame := func(from int, got []event, c Cursor) {
				t.Helper()
				if from+len(got) > len(complete) {
					t.Fatalf("rank %d: read %d records from %+v, the %d-th of %d", rank, len(got), c, from, len(complete))
				}
				for i, g := range got {
					if w := complete[from+i]; g.ref != w.ref || !sameBits(g.startS, w.startS) ||
						!sameBits(g.durS, w.durS) || !sameBits(g.v0, w.v0) || !sameBits(g.v1, w.v1) {
						t.Fatalf("rank %d: record %d reads %+v from %+v, recorded %+v", rank, from+i, g, c, w)
					}
				}
			}
			var c Cursor
			for read := 0; ; {
				// Every cursor reads the rest of the track, and resumes
				// the read that stopped there.
				_, rest := readFrom(c, -1)
				requireSame(read, rest, c)
				if read+len(rest) != len(complete) {
					t.Fatalf("rank %d: %+v reads %d records to the end, want %d", rank, c, len(rest), len(complete)-read)
				}
				if read == len(complete) {
					break
				}
				next, part := readFrom(c, rng.Intn(4))
				requireSame(read, part, c)
				c, read = next, read+len(part)
			}
		}

		var exported, oracle bytes.Buffer
		err, oerr := tr.WriteJSON(&exported), oracleJSON(&oracle, tr.descs, model)
		switch {
		case (err != nil) != (oerr != nil):
			t.Fatalf("WriteJSON fails with %v, the oracle with %v", err, oerr)
		case err == nil && !bytes.Equal(exported.Bytes(), oracle.Bytes()):
			t.Fatalf("WriteJSON (%d bytes) differs from the oracle's export of the recorded events (%d bytes)", exported.Len(), oracle.Len())
		}
	})
}
