package telemetry

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sphenergy/internal/jsontext"
)

// OracleWriteJSON is the trace export as it stood before the append
// encoder (commit 08cd155), kept verbatim as the reference WriteJSON must
// match byte for byte: one map[string]any per event, marshalled by
// encoding/json. Exported so the external test package can run it over a
// real core.Run.
func OracleWriteJSON(t *Tracer, w io.Writer) error {
	events := []map[string]any{}
	if t != nil {
		t.descMu.Lock()
		descs := append([]spanDesc(nil), t.descs...)
		t.descMu.Unlock()
		for tid := range t.shards {
			s := &t.shards[tid]
			s.mu.Lock()
			buf := s.events.AppendTo(nil)
			fast := s.fast.AppendTo(nil)
			s.mu.Unlock()
			for i := range buf {
				events = append(events, oracleEventObject(&buf[i], tid))
			}
			for i := range fast {
				if int(fast[i].ref) < len(descs) {
					events = append(events, oracleFastEventObject(&fast[i], tid, &descs[fast[i].ref]))
				}
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ms",
	})
}

func oracleEventObject(e *event, tid int) map[string]any {
	obj := map[string]any{
		"name": e.name,
		"ph":   string(rune(e.ph)),
		"ts":   e.startS * 1e6,
		"pid":  0,
		"tid":  tid,
	}
	if e.cat != "" {
		obj["cat"] = e.cat
	}
	switch e.ph {
	case phaseComplete:
		obj["dur"] = e.durS * 1e6
	case phaseInstant:
		obj["s"] = "t" // thread-scoped instant
	}
	if n := int(e.nattr) + len(e.extra); n > 0 {
		args := make(map[string]any, n)
		for _, a := range e.attrs[:e.nattr] {
			args[a.Key] = a.Value()
		}
		for _, a := range e.extra {
			args[a.Key] = a.Value()
		}
		obj["args"] = args
	}
	return obj
}

func oracleFastEventObject(e *fastEvent, tid int, d *spanDesc) map[string]any {
	obj := map[string]any{
		"name": d.name,
		"ph":   string(rune(e.ph)),
		"ts":   e.startS * 1e6,
		"pid":  0,
		"tid":  tid,
	}
	if d.cat != "" {
		obj["cat"] = d.cat
	}
	switch e.ph {
	case phaseComplete:
		obj["dur"] = e.durS * 1e6
	case phaseInstant:
		obj["s"] = "t"
	}
	if d.nkeys > 0 {
		args := make(map[string]any, d.nkeys)
		args[d.keys[0]] = e.v0
		if d.nkeys > 1 {
			args[d.keys[1]] = e.v1
		}
		obj["args"] = args
	}
	return obj
}

// requireOracleBytes fails unless WriteJSON and the oracle produce the
// same bytes for tr.
func requireOracleBytes(t *testing.T, tr *Tracer) {
	t.Helper()
	var want, got bytes.Buffer
	if err := OracleWriteJSON(tr, &want); err != nil {
		t.Fatalf("oracle: %v", err)
	}
	if err := tr.WriteJSON(&got); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("WriteJSON differs from the encoding/json oracle\n got: %s\nwant: %s", got.Bytes(), want.Bytes())
	}
}

// awkward holds the strings every quoted position is tried with.
var awkward = []string{
	"", "plain", "<script>", "a>b", "R&D", "line\u2028sep", "para\u2029sep",
	`say "hi"`, `back\slash`, "tab\there", "nl\nhere", "cr\rhere", "bell\x07", "bs\bff\f",
	"del\x7f", "héllo wörld", "日本語", "🚀", "bad\xffutf8", "cut\xe2\x80", "\xc0\xaf", "nul\x00byte",
}

// edgeValues holds the numbers every float position is tried with.
var edgeValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 1e-7, -1e-7, 1e-6, 9.99e-7, 123456789.125, 1e21, -1e21,
	9.999999999999999e20, 1e22, 1.5e-9, 1.25e-10, 1e-300, math.SmallestNonzeroFloat64, math.MaxFloat64 / 2,
	0.1, 1.0 / 3, 1410, 2.5e15, 1 << 53, 4.35,
}

func TestWriteJSONMatchesOracleOnEdgeEvents(t *testing.T) {
	t.Run("nil", func(t *testing.T) { requireOracleBytes(t, nil) })
	t.Run("empty", func(t *testing.T) { requireOracleBytes(t, NewTracer(3)) })
	t.Run("zero-ranks", func(t *testing.T) {
		tr := NewTracer(0)
		tr.Complete(0, "c", "only the global track", 1, 2)
		requireOracleBytes(t, tr)
	})

	t.Run("generic", func(t *testing.T) {
		tr := NewTracer(2)
		tr.SetTrackName(0, "rank 0")
		tr.SetTrackName(GlobalTrack, "sim")
		// String, int and float attributes, inline and spilling into extra.
		tr.Complete(0, "function", "one", 1, 0.5, String("s", "v"))
		tr.Complete(0, "function", "two", 1, 0.5, Int("i", -42), Float("f", 2.5))
		tr.Complete(1, "function", "three", 1, 0.5, Int("i", 7), Float("f", 2.5), String("s", "v"))
		tr.Complete(1, "function", "five", 1, 0.5,
			Float("e", 5), Float("d", 4), Float("c", 3), Float("b", 2), Float("a", 1))
		// Unsorted and duplicate keys: sorted on export, the last write wins
		// whether the two writes sit inline, in extra, or one in each.
		tr.Complete(0, "k", "unsorted", 0, 1, Int("zz", 1), Int("aa", 2))
		tr.Complete(0, "k", "dup-inline", 0, 1, Int("k", 1), Int("k", 2))
		tr.Complete(0, "k", "dup-spill", 0, 1, Int("k", 1), Int("b", 0), Int("k", 3), Int("a", 9))
		tr.Complete(0, "k", "dup-extra", 0, 1, Int("x", 1), Int("y", 2), String("k", "old"), Float("k", 0.5), Int("k", 8))
		tr.Complete(0, "k", "prefix-keys", 0, 1, Int("ab", 1), Int("a", 2), Int("", 3), Int("B", 4))
		// No category, no name.
		tr.Complete(0, "", "no-cat", 0, 1)
		tr.Instant(1, "c", "", 0.25)
		// Counter and metadata phases, with and without values.
		tr.Counter(0, "gpu_power_w", 1.5, Float("watts", 250.5), Float("cap", 400))
		tr.Counter(1, "bare-counter", 2)
		tr.Instant(0, "freq", "freq-change", 1.2, Int("mhz", 1005))
		tr.Instant(0, "v", "largest", 0, Float("max", math.MaxFloat64), Int("min", math.MinInt64), Int("big", 1<<53))
		// Out-of-range ranks land on the global track.
		tr.Complete(99, "x", "overflow", 0, 1)
		tr.Instant(-5, "x", "negative", 3)
		for _, s := range awkward {
			tr.Complete(0, s, s, 0, 1, String(s, s))
			tr.Instant(1, "c", "n", 0, String("k", s), Float(s, 1), Int(s+s, 2))
			tr.SetTrackName(1, s)
		}
		for _, v := range edgeValues {
			tr.Complete(0, "v", "value", v/1e6, v/1e6, Float("v", v), Int("i", int(math.Max(-1e18, math.Min(v, 1e18)))))
			tr.Instant(1, "v", "value", v/1e6, Float("v", -v))
			tr.Counter(0, "value", v/1e6, Float("v", v))
		}
		requireOracleBytes(t, tr)
	})

	t.Run("interned", func(t *testing.T) {
		tr := NewTracer(2)
		refs := []SpanRef{
			tr.Intern("mpi", "barrier-wait"),
			tr.Intern("kernel", "one-key", "clock_mhz"),
			tr.Intern("kernel", "sorted", "clock_mhz", "energy_j"),
			tr.Intern("kernel", "unsorted", "requested_mhz", "applied_mhz"),
			tr.Intern("kernel", "duplicate", "k", "k"),
			tr.Intern("kernel", "empty-keys", "", ""),
			tr.Intern("kernel", "empty-then-a", "", "a"),
			tr.Intern("", "no-cat", "b", "a"),
			tr.Intern("", ""),
			tr.Intern("kernel", "surplus", "a", "b", "c"),
		}
		for _, s := range awkward {
			refs = append(refs, tr.Intern(s, s, s, s+"2"), tr.Intern("c", s, "z"+s, "a"+s))
		}
		for i, ref := range refs {
			tr.CompleteRef(i%2, ref, 1.5, 0.25, 1005, 3.5)
			tr.InstantRef(i%2, ref, 2, -1, 1e-9)
			tr.CompleteRef(GlobalTrack, ref, 0, 0, 0, 0)
		}
		for _, v := range edgeValues {
			tr.CompleteRef(0, refs[2], v/1e6, v/1e6, v, -v)
			tr.InstantRef(1, refs[3], v/1e6, -v, v)
		}
		tr.RecordSpan(7, "mpi", "barrier-wait", 2, 0.1)
		// A ref this tracer never issued is skipped, as before.
		tr.CompleteRef(0, SpanRef(len(refs)+1000), 0, 1, 0, 0)
		// Generic and interned events interleave on one shard.
		tr.Complete(0, "step", "step 0", 0, 2)
		requireOracleBytes(t, tr)

		tr.Reset()
		tr.CompleteRef(1, refs[1], 9, 1, 1410, 7)
		requireOracleBytes(t, tr)
	})

	// An export larger than one chunk crosses flush boundaries unharmed.
	t.Run("chunks", func(t *testing.T) {
		tr := NewTracer(1)
		ref := tr.Intern("kernel", "k", "a", "b")
		for i := 0; i < 3*encodeChunk/100; i++ {
			tr.CompleteRef(0, ref, float64(i)*1e-3, 1e-4, float64(i), 0.5)
			tr.Complete(0, "step", strings.Repeat("s", i%7), float64(i), 1, Int("i", i))
		}
		tr.Complete(0, "big", strings.Repeat("<", 2*encodeChunk), 0, 1)
		requireOracleBytes(t, tr)
	})
}

// TestAppendQuotedMatchesEncodingJSON checks the string literal writer
// against json.Marshal on every single byte and on the awkward strings.
func TestAppendQuotedMatchesEncodingJSON(t *testing.T) {
	cases := append([]string(nil), awkward...)
	for b := 0; b < 256; b++ {
		cases = append(cases, string([]byte{byte(b)}), "x"+string([]byte{byte(b)})+"y")
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := jsontext.AppendString(nil, s); !bytes.Equal(got, want) {
			t.Errorf("AppendString(%q) = %s, encoding/json writes %s", s, got, want)
		}
	}
}

// failAfter is a writer that fails once it has taken n bytes.
type failAfter struct{ n int }

var errSink = errors.New("sink full")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n -= len(p); f.n < 0 {
		return 0, errSink
	}
	return len(p), nil
}

// TestWriteJSONErrors pins the two failure modes: a value JSON cannot hold
// fails the export (as encoding/json failed it) wherever it sits, leaving
// no file behind through WriteFile, and a writer error is passed on.
func TestWriteJSONErrors(t *testing.T) {
	ref := func(tr *Tracer) SpanRef { return tr.Intern("kernel", "k", "a", "b") }
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, record := range map[string]func(tr *Tracer){
			"ts":           func(tr *Tracer) { tr.Complete(0, "c", "n", bad, 1) },
			"dur":          func(tr *Tracer) { tr.Complete(0, "c", "n", 0, bad) },
			"attr":         func(tr *Tracer) { tr.Instant(0, "c", "n", 0, Float("v", bad)) },
			"extra-attr":   func(tr *Tracer) { tr.Instant(0, "c", "n", 0, Int("a", 1), Int("b", 2), Float("v", bad)) },
			"counter":      func(tr *Tracer) { tr.Counter(0, "n", 0, Float("v", bad)) },
			"interned-ts":  func(tr *Tracer) { tr.CompleteRef(0, ref(tr), bad, 1, 0, 0) },
			"interned-dur": func(tr *Tracer) { tr.CompleteRef(0, ref(tr), 0, bad, 0, 0) },
			"interned-v0":  func(tr *Tracer) { tr.CompleteRef(0, ref(tr), 0, 1, bad, 0) },
			"interned-v1":  func(tr *Tracer) { tr.InstantRef(0, ref(tr), 0, 0, bad) },
			"after-a-chunk": func(tr *Tracer) {
				tr.Complete(0, "c", strings.Repeat("x", 2*encodeChunk), 0, 1)
				tr.Complete(0, "c", "n", bad, 1)
			},
		} {
			tr := NewTracer(1)
			tr.Complete(0, "c", "fine", 0, 1)
			record(tr)
			tr.Complete(0, "c", "fine too", 1, 1)
			if err := OracleWriteJSON(tr, io.Discard); err == nil {
				t.Fatalf("%s=%v: the oracle accepted it", name, bad)
			}
			if err := tr.WriteJSON(io.Discard); err == nil {
				t.Errorf("%s=%v: WriteJSON returned no error", name, bad)
			}
			path := filepath.Join(t.TempDir(), "trace.json")
			if err := tr.WriteFile(path); err == nil {
				t.Errorf("%s=%v: WriteFile returned no error", name, bad)
			}
			if left, _ := os.ReadDir(filepath.Dir(path)); len(left) != 0 {
				t.Errorf("%s=%v: failed WriteFile left %d file(s) behind", name, bad, len(left))
			}
		}
	}

	tr := NewTracer(1)
	for i := 0; i < 4*encodeChunk/50; i++ {
		tr.Complete(0, "c", "n", float64(i), 1)
	}
	for _, room := range []int{0, encodeChunk + 1, 3 * encodeChunk} {
		if err := tr.WriteJSON(&failAfter{n: room}); !errors.Is(err, errSink) {
			t.Errorf("writer failing after %d bytes: WriteJSON returned %v", room, err)
		}
	}
}

// TestWriteJSONAllocsDoNotGrowWithSpans gates the encoder's shape without a
// clock: what an export allocates is set by the tracks and the interned
// identities, not by how many spans they recorded.
func TestWriteJSONAllocsDoNotGrowWithSpans(t *testing.T) {
	allocs := func(spans int) float64 {
		tr := NewTracer(4)
		refs := []SpanRef{
			tr.Intern("kernel", "density", "clock_mhz", "energy_j"),
			tr.Intern("function", "momentum", "gpu_j", "comm_s"),
			tr.Intern("mpi", "barrier-wait"),
		}
		for i := 0; i < spans; i++ {
			tr.CompleteRef(i%4, refs[i%3], float64(i)*1e-3, 1e-4, 1410, 0.25*float64(i))
		}
		return testing.AllocsPerRun(3, func() {
			if err := tr.WriteJSON(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(1_000), allocs(100_000)
	if large-small >= 16 {
		t.Errorf("WriteJSON allocates %.0f times for 1 000 spans and %.0f for 100 000; want the count not to follow the spans", small, large)
	}
}

// TestSpansAllocations gates the read-back likewise: one result slice, one
// argument slab, however many spans.
func TestSpansAllocations(t *testing.T) {
	tr := NewTracer(4)
	ref := tr.Intern("kernel", "density", "clock_mhz", "energy_j")
	for i := 0; i < 50_000; i++ {
		tr.CompleteRef(i%4, ref, float64(i), 1, 1410, 2)
		tr.Complete(i%4, "step", "s", float64(i), 1, Int("a", 1), Int("b", 2), Int("c", 3))
	}
	var spans []SpanEvent
	if n := testing.AllocsPerRun(3, func() { spans = tr.Spans() }); n > 4 {
		t.Errorf("Spans allocates %.0f times, want at most 4", n)
	}
	if len(spans) != 100_000 {
		t.Fatalf("read back %d spans, want 100000", len(spans))
	}
}

// TestSpansArgsDoNotAlias pins the full-slice-expression cap: growing one
// span's Args must reallocate, not write into its neighbour's.
func TestSpansArgsDoNotAlias(t *testing.T) {
	tr := NewTracer(1)
	ref := tr.Intern("kernel", "k", "a", "b")
	tr.CompleteRef(0, ref, 0, 1, 1, 2)
	tr.CompleteRef(0, ref, 1, 1, 3, 4)
	tr.Complete(0, "c", "bare", 2, 1)
	tr.Complete(0, "c", "three", 3, 1, Int("x", 5), Int("y", 6), Int("z", 7))
	spans := tr.Spans()
	// Shard order: generic events first, then interned ones.
	if spans[0].Args != nil {
		t.Errorf("span without arguments has Args %v, want nil", spans[0].Args)
	}
	for i, s := range spans {
		if cap(s.Args) != len(s.Args) {
			t.Errorf("span %d: Args has len %d but cap %d", i, len(s.Args), cap(s.Args))
		}
	}
	_ = append(spans[1].Args, Float("intruder", -1))
	_ = append(spans[2].Args, Float("intruder", -1))
	if v, _ := spans[2].Arg("a"); v != 1 {
		t.Errorf("appending to the previous span's Args overwrote a = %v", v)
	}
	if v, _ := spans[3].Arg("a"); v != 3 {
		t.Errorf("appending to the previous span's Args overwrote a = %v", v)
	}
	if len(spans[1].Args) != 3 || len(spans[2].Args) != 2 {
		t.Errorf("Args lengths changed: %d, %d", len(spans[1].Args), len(spans[2].Args))
	}
}
