package traceanalysis

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"sphenergy/internal/cluster"
	"sphenergy/internal/core"
	"sphenergy/internal/events"
	"sphenergy/internal/freqctl"
	"sphenergy/internal/jsontext"
	"sphenergy/internal/sampler"
	"sphenergy/internal/telemetry"
)

// referenceLoad is the loader the scanner replaced, with encoding/json
// doing all the parsing, kept as the oracle Load is fuzzed against. Its one
// departure from the old code is the one the scanner makes: keys match in
// exact case, which decoding objects into maps gives (encoding/json matches
// struct fields case-insensitively). The top-level object is walked token
// by token so that, as in the scanner, each "traceEvents" value is decoded
// as it passes and a later one replaces an earlier one; arrays counts them.
func referenceLoad(data []byte) (spans []Span, arrays int, err error) {
	if !json.Valid(data) {
		return nil, 0, errors.New("invalid JSON")
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	tok, err := dec.Token()
	if err != nil {
		return nil, 0, err
	}
	if tok == nil {
		return nil, 0, nil // a null document is an empty trace
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, 0, fmt.Errorf("document is %v, want an object", tok)
	}
	var evs []map[string]json.RawMessage
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			return nil, 0, err
		}
		if key != "traceEvents" {
			var skipped json.RawMessage
			if err := dec.Decode(&skipped); err != nil {
				return nil, 0, err
			}
			continue
		}
		arrays++
		evs = nil
		if err := dec.Decode(&evs); err != nil {
			return nil, 0, err
		}
	}

	str := func(raw json.RawMessage) (s string, err error) {
		if raw != nil {
			err = json.Unmarshal(raw, &s)
		}
		return s, err
	}
	num := func(raw json.RawMessage) (f float64, err error) {
		if raw != nil {
			err = json.Unmarshal(raw, &f)
		}
		return f, err
	}
	globalTIDs := map[int]bool{}
	for _, ev := range evs {
		name, err1 := str(ev["name"])
		cat, err2 := str(ev["cat"])
		ph, err3 := str(ev["ph"])
		ts, err4 := num(ev["ts"])
		dur, err5 := num(ev["dur"])
		tid := 0
		var err6 error
		if raw := ev["tid"]; raw != nil {
			err6 = json.Unmarshal(raw, &tid)
		}
		if err := errors.Join(err1, err2, err3, err4, err5, err6); err != nil {
			return nil, arrays, err
		}
		switch {
		case ph == "X":
			spans = append(spans, Span{Rank: tid, Cat: cat, Name: name, StartS: ts / 1e6, DurS: dur / 1e6})
		case ph == "M" && name == "thread_name":
			var args map[string]json.RawMessage
			if json.Unmarshal(ev["args"], &args) == nil {
				if track, err := str(args["name"]); err == nil && track == "sim" {
					globalTIDs[tid] = true
				}
			}
		}
	}
	for i := range spans {
		if globalTIDs[spans[i].Rank] {
			spans[i].Rank = GlobalRank
		}
	}
	return spans, arrays, nil
}

func sameSpans(a, b []Span) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// checkAgainstReference holds Load and LoadLenient to the reference on one
// document and, when the reference accepts it, on every cut of it (on a
// spread of cuts once the document is long).
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	want, arrays, refErr := referenceLoad(data)
	got, err := Load(data)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("Load error = %v, reference error = %v\ndocument: %q", err, refErr, data)
	}
	lenient, truncated, lerr := LoadLenient(data)
	if err != nil {
		if got != nil {
			t.Fatalf("failed Load returned %d spans", len(got))
		}
		if !truncated || (lerr != nil && lenient != nil) {
			t.Fatalf("LoadLenient of a rejected document: truncated=%v err=%v spans=%d", truncated, lerr, len(lenient))
		}
		return
	}
	if !sameSpans(got, want) {
		t.Fatalf("Load differs from the reference\n got: %+v\nwant: %+v\ndocument: %q", got, want, data)
	}
	if lerr != nil || truncated || !sameSpans(lenient, got) {
		t.Fatalf("LoadLenient of an accepted document: truncated=%v err=%v, %d spans vs %d", truncated, lerr, len(lenient), len(got))
	}
	if arrays > 1 {
		return // spans recovered from a replaced array are no prefix of the last one's
	}
	stride := 1 + len(data)/2048
	for cut := len(data) - 1; cut >= 0; cut -= stride {
		part, truncated, err := LoadLenient(data[:cut])
		if _, _, refErr := referenceLoad(data[:cut]); refErr == nil {
			// Only trailing whitespace was cut: still a whole document.
			if err != nil || truncated || !sameSpans(part, got) {
				t.Fatalf("cut at %d is a whole document: truncated=%v err=%v, %d spans vs %d", cut, truncated, err, len(part), len(got))
			}
			continue
		}
		if !truncated {
			t.Fatalf("cut at %d: truncated=false\ndocument: %q", cut, data[:cut])
		}
		if err != nil {
			if part != nil {
				t.Fatalf("cut at %d: error %v with %d spans", cut, err, len(part))
			}
			continue
		}
		if len(part) > len(got) {
			t.Fatalf("cut at %d recovered %d spans, the full parse has %d", cut, len(part), len(got))
		}
		for i, s := range part {
			// Tracks resolve from the metadata seen so far: a span may still
			// carry its tid where the full parse has learnt it is global.
			if full := got[i]; full.Rank == GlobalRank {
				s.Rank = GlobalRank
			}
			if s != got[i] {
				t.Fatalf("cut at %d: span %d = %+v, the full parse has %+v", cut, i, part[i], got[i])
			}
		}
	}
}

// scannerSeeds are the documents FuzzLoad starts from (and plain `go test`
// replays): every shape the scanner has a branch for.
func scannerSeeds() []string {
	tr := telemetry.NewTracer(2)
	tr.SetTrackName(0, "rank 0")
	ref := tr.Intern("kernel", "density <fast> & \"quoted\"", "clock_mhz", "energy_j")
	tr.CompleteRef(0, ref, 1.5, 0.25, 1005, 3.5e-9)
	tr.Complete(1, "function", "日本語\u2028\\\x01", 2, 1e-9, telemetry.String("s", "a\"b"), telemetry.Int("i", -3), telemetry.Float("f", 1e22))
	tr.Instant(0, "freq", "freq-change", 1.2, telemetry.Int("mhz", 1005))
	tr.Counter(0, "gpu_power_w", 1.3, telemetry.Float("watts", 300))
	tr.Complete(telemetry.GlobalTrack, "step", "step 0", 0, 2)
	tr.SetTrackName(telemetry.GlobalTrack, "sim")
	var exported bytes.Buffer
	if err := tr.WriteJSON(&exported); err != nil {
		panic(err)
	}
	return []string{
		// The four documents of truncated_test.go.
		truncTestTrace,
		`{"displayTimeUnit":"ms","traceEvents":[` +
			`{"name":"k1","cat":"kernel","ph":"X","ts":0,"dur":10,"tid":0},` +
			`{"name":"k2","cat":"kernel","ph":"X","ts":5,"dur"`,
		`{"traceEvents":[]}`,
		`{"other":true}`,
		"", "not json at all", `[1,2,3]`, `null`, ` null `, `nul`, `5`, `"traceEvents"`, `{`, `{}`, `{} x`, `{}{}`,
		// A real export: escapes, metadata after the spans it names.
		exported.String(),
		// Metadata after its spans, two global tracks, a track renamed.
		`{"traceEvents":[{"ph":"X","name":"a","tid":7,"ts":1,"dur":2},{"ph":"X","name":"b","tid":8},` +
			`{"ph":"M","name":"thread_name","tid":7,"args":{"name":"sim"}},{"ph":"M","name":"thread_name","tid":8,"args":{"name":"sim"}},` +
			`{"ph":"M","name":"thread_name","tid":8,"args":{"name":"rank 8"}},{"ph":"M","name":"process_name","tid":9,"args":{"name":"sim"}}]}`,
		// Escaped and non-ASCII names, escaped keys, invalid UTF-8, surrogates.
		`{"traceEvents":[{"ph":"X","name":"a\"b\\c\/d\b\f\n\r\tAé","cat":"caté","ts":1,"dur":1,"tid":0},` +
			`{"p\u0068":"X","n\u0061me":"escaped keys","tid":1},{"ph":"\u0058","name":"\ud83d\ude80 \ud83d x","tid":2},` +
			"{\"ph\":\"X\",\"name\":\"bad\xffutf8\",\"cat\":\"\xc0\xaf\",\"tid\":3}]}",
		`{"traceEvents":[{"ph":"X","name":"bad escape \x"}]}`, `{"traceEvents":[{"ph":"X","name":"bad hex \u12g4"}]}`,
		"{\"traceEvents\":[{\"ph\":\"X\",\"name\":\"raw\ttab\"}]}", `{"traceEvents":[{"ph":"X","name":"open`,
		// Nested args, args of every kind, args.name of every kind.
		`{"traceEvents":[{"ph":"M","name":"thread_name","tid":1,"args":{"x":{"name":"sim"},"list":[1,[2,{"name":"sim"}]]}},` +
			`{"ph":"M","name":"thread_name","tid":2,"args":["sim"]},{"ph":"M","name":"thread_name","tid":3,"args":"sim"},` +
			`{"ph":"M","name":"thread_name","tid":4,"args":{"name":5}},{"ph":"M","name":"thread_name","tid":5,"args":{"name":null}},` +
			`{"ph":"M","name":"thread_name","tid":6,"args":{"name":"rank","name":"sim"}},{"ph":"M","name":"thread_name","tid":7,"args":null},` +
			`{"ph":"M","name":"thread_name","tid":8,"args":{"Name":"sim"}},{"ph":"M","name":"thread_name","tid":9,"args":{"n\u0061me":"s\u0069m"}},` +
			`{"ph":"M","name":"thread_name","tid":10},{"ph":"M","name":"thread_name","tid":11,"args":{}},` +
			`{"ph":"X","tid":1},{"ph":"X","tid":2},{"ph":"X","tid":3},{"ph":"X","tid":4},{"ph":"X","tid":5},{"ph":"X","tid":6},` +
			`{"ph":"X","tid":7},{"ph":"X","tid":8},{"ph":"X","tid":9},{"ph":"X","tid":10},{"ph":"X","tid":11}]}`,
		// traceEvents absent, not first, empty, null, repeated, mistyped.
		`{"displayTimeUnit":"ms","metadata":{"traceEvents":[{"ph":"X"}]}}`,
		`{"a":[1,2,{"b":null}],"traceEvents":[{"ph":"X","name":"late","tid":0}],"z":false}`,
		`{"traceEvents":null}`, `{"traceEvents":[null,{"ph":"X","name":"after null"},null]}`,
		`{"traceEvents":[{"ph":"X","name":"first"}],"traceEvents":[{"ph":"X","name":"second"},{"ph":"X","name":"third"}]}`,
		`{"traceEvents":[{"ph":"X","name":"dropped"}],"traceEvents":null}`,
		`{"traceEvents":{}}`, `{"traceEvents":5}`, `{"traceEvents":"x"}`, `{"traceEvents":[5]}`, `{"traceEvents":[[]]}`, `{"traceEvents":["x"]}`,
		`{"TraceEvents":[{"ph":"X"}],"traceevents":[{"ph":"X"}]}`,
		// Numbers in every form, and what is no number.
		`{"traceEvents":[{"ph":"X","ts":1e3,"dur":2.5E-1,"tid":3},{"ph":"X","ts":-0,"dur":0.000001e+6,"tid":-4},` +
			`{"ph":"X","ts":123456789012345678901234567890,"dur":1.7976931348623157e308,"tid":0}]}`,
		`{"traceEvents":[{"ph":"X","ts":1e999}]}`, `{"traceEvents":[{"ph":"X","tid":1.0}]}`, `{"traceEvents":[{"ph":"X","tid":1e2}]}`,
		`{"traceEvents":[{"ph":"X","tid":9223372036854775808}]}`, `{"traceEvents":[{"ph":"X","tid":-9223372036854775808}]}`,
		`{"traceEvents":[{"ph":"X","ts":01}]}`, `{"traceEvents":[{"ph":"X","ts":1.}]}`, `{"traceEvents":[{"ph":"X","ts":.5}]}`,
		`{"traceEvents":[{"ph":"X","ts":1e}]}`, `{"traceEvents":[{"ph":"X","ts":-}]}`, `{"traceEvents":[{"ph":"X","ts":+1}]}`,
		`{"traceEvents":[{"ph":"X","ts":"1"}]}`, `{"traceEvents":[{"ph":"X","dur":true}]}`, `{"traceEvents":[{"ph":"X","tid":"0"}]}`,
		`{"traceEvents":[{"ph":1}]}`, `{"traceEvents":[{"ph":"X","name":{}}]}`, `{"traceEvents":[{"ph":"X","cat":["c"]}]}`,
		// Duplicate keys: the last wins, even over a mistyped or null one.
		`{"traceEvents":[{"ph":"i","ph":"X","name":"a","name":"b","ts":1,"ts":2,"tid":1,"tid":2,"cat":"c","cat":null}]}`,
		`{"traceEvents":[{"ph":"X","ts":"mistyped","ts":3,"name":null,"name":"n"}]}`, `{"traceEvents":[{"ph":"X","ts":3,"ts":"mistyped"}]}`,
		// Exact-case keys, null fields, other phases.
		`{"traceEvents":[{"PH":"X","Name":"upper"},{"ph":"x","name":"lower phase"},{"ph":"X","NAME":"n","name":"exact","TID":5}]}`,
		`{"traceEvents":[{"ph":"X","name":null,"cat":null,"ts":null,"dur":null,"tid":null,"args":null},{"ph":null},{}]}`,
		`{"traceEvents":[{"ph":"B","name":"begin"},{"ph":"E"},{"ph":"i","s":"t"},{"ph":"C","args":{"v":1}}]}`,
		// Whitespace everywhere.
		" \t\r\n{ \"traceEvents\" \n:\t[ \r{ \"ph\" : \"X\" , \"name\" : \"spaced\" , \"ts\" : 1 , \"args\" : { \"a\" : [ 1 , 2 ] } } , { } ] , \"k\" : null } \n\n",
		// Malformed structure.
		`{"traceEvents":[{"ph":"X"},]}`, `{"traceEvents":[,{"ph":"X"}]}`, `{"traceEvents":[{"ph":"X",}]}`, `{"traceEvents":[{,"ph":"X"}]}`,
		`{"traceEvents":[{"ph":"X"} {"ph":"X"}]}`, `{"traceEvents":[{"ph" "X"}]}`, `{"traceEvents":[{ph:"X"}]}`, `{"traceEvents":[{"ph":"X"}]]`,
		`{"traceEvents":[{"ph":"X"}]},`, `{"traceEvents":[{"ph":"X","args":{"a":tru}}]}`, `{"traceEvents":[{"ph":"X","args":[1,]}]}`,
		"{\"traceEvents\":[{\"ph\":\"X\"}]}\x00", `{"a":1,"a"}`, `{"a"}`, `{1:2}`,
		// Nesting at and past the limit encoding/json sets.
		`{"deep":` + strings.Repeat("[", jsontext.MaxDepth-1) + strings.Repeat("]", jsontext.MaxDepth-1) + `}`,
		`{"deep":` + strings.Repeat("[", jsontext.MaxDepth) + strings.Repeat("]", jsontext.MaxDepth) + `}`,
		`{"traceEvents":[{"ph":"X","args":` + strings.Repeat(`{"a":`, jsontext.MaxDepth-3) + `1` + strings.Repeat("}", jsontext.MaxDepth-3) + `}]}`,
		`{"traceEvents":[{"ph":"X","args":` + strings.Repeat(`{"a":`, jsontext.MaxDepth-2) + `1` + strings.Repeat("}", jsontext.MaxDepth-2) + `}]}`,
	}
}

// FuzzLoad holds the scanner to the encoding/json reference: for any input
// no panic (so no read outside the input) and the same verdict; for an
// accepted document the same spans; for every cut of one a prefix of them
// with truncated=true.
func FuzzLoad(f *testing.F) {
	for _, seed := range scannerSeeds() {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkAgainstReference(t, data) })
}

// recordedTrace is the exported trace of one fixed observed run: 8 ranks,
// 300 steps, ManDyn, sampler and decision ledger on (93 017 events).
func recordedTrace(tb testing.TB) []byte {
	tb.Helper()
	cfg := core.Config{
		System:           cluster.MiniHPC(),
		Ranks:            8,
		Sim:              core.Turbulence,
		ParticlesPerRank: 10e6,
		Steps:            300,
		Seed:             42,
		Tracer:           telemetry.NewTracer(8),
		Events:           events.NewLedger(0),
		Sampling:         sampler.Config{GPUHz: 100, NodeHz: 10},
		NewStrategy: func() freqctl.Strategy {
			return &freqctl.ManDyn{Table: map[string]int{core.FnIAD: 1005, core.FnMomentum: 1110}}
		},
	}
	if _, err := core.Run(cfg); err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cfg.Tracer.WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadRealRunMatchesReferenceAndReadBack runs the whole export of a
// real run through the scanner: same spans as the reference, and the same
// spans as the in-process read-back but for the trace's microsecond trip.
func TestLoadRealRunMatchesReferenceAndReadBack(t *testing.T) {
	data := recordedTrace(t)
	want, _, err := referenceLoad(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	if !sameSpans(got, want) {
		t.Fatalf("Load read %d spans, the reference %d, or they differ", len(got), len(want))
	}
	distinct := map[string]bool{}
	for _, s := range got {
		distinct[s.Name], distinct[s.Cat] = true, true
	}
	if len(got) < 50_000 || len(distinct) > 400 {
		t.Errorf("fixed run loaded as %d spans over %d strings; want a long trace of few identities", len(got), len(distinct))
	}
	// A cut in the middle keeps what came before it.
	part, truncated, err := LoadLenient(data[:len(data)/2])
	if err != nil || !truncated || len(part) == 0 || len(part) >= len(got) {
		t.Errorf("half the trace: truncated=%v err=%v, %d of %d spans", truncated, err, len(part), len(got))
	}
}

// syntheticExport is a trace of the given number of spans drawn from the
// given number of distinct names.
func syntheticExport(tb testing.TB, spans, names int) []byte {
	tb.Helper()
	tr := telemetry.NewTracer(4)
	refs := make([]telemetry.SpanRef, names)
	for i := range refs {
		refs[i] = tr.Intern("kernel", fmt.Sprintf("kernel-%d", i), "clock_mhz", "energy_j")
	}
	for i := 0; i < spans; i++ {
		tr.CompleteRef(i%4, refs[i%names], float64(i)*1e-3, 1e-4, 1410, 0.25*float64(i))
	}
	tr.SetTrackName(telemetry.GlobalTrack, "sim")
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoadAllocations gates the scanner's shape without a clock: a fixed
// handful of allocations per document plus one string per distinct name or
// category, however many spans carry them.
func TestLoadAllocations(t *testing.T) {
	allocs := func(spans, names int) float64 {
		data := syntheticExport(t, spans, names)
		return testing.AllocsPerRun(3, func() {
			if got, err := Load(data); err != nil || len(got) != spans {
				t.Fatalf("Load: %d spans, err %v", len(got), err)
			}
		})
	}
	few, many := allocs(1_000, 10), allocs(100_000, 10)
	if few > 24 || many-few > 4 {
		t.Errorf("Load allocates %.0f times for 1 000 spans and %.0f for 100 000; want a small count that does not follow the spans", few, many)
	}
	// 190 more names: 190 more strings, and the intern map growing past its
	// initial size a few times.
	if wide := allocs(1_000, 200); wide-few < 190 || wide-few > 190+24 {
		t.Errorf("Load allocates %.0f times for 200 names and %.0f for 10; want one more per distinct name", wide, few)
	}
}

func BenchmarkTraceLoad(b *testing.B) {
	data := recordedTrace(b)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spans, err := Load(data)
		if err != nil || len(spans) == 0 {
			b.Fatal(err)
		}
	}
}
