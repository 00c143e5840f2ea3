package events

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

// RetainedEvents returns a copy of the events the ledger retains, in
// sequence order, decoded from its records. Exported so the external test
// package can hold a real core.Run's read-back to what the ledger holds.
func RetainedEvents(l *Ledger) []Event { return retained(l) }

func retained(l *Ledger) []Event {
	var evs []Event
	if l != nil {
		l.each(func(ev *Event) { evs = append(evs, *ev) })
	}
	return evs
}

// OracleWriteJSONL is WriteJSONL as it stood before the append encoder
// (commit 7955eee), kept as the reference the encoder must match byte for
// byte: encoding/json over a copy of the ring. Exported so the external
// test package can run it over a real core.Run.
func OracleWriteJSONL(l *Ledger, w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range retained(l) {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// OracleReadJSONL is ReadJSONL as it stood at the same commit: every line
// through json.Unmarshal, the first that fails ending the parse.
func OracleReadJSONL(r io.Reader) (evs []Event, truncated bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var ev Event
		if uerr := json.Unmarshal(line, &ev); uerr != nil {
			return evs, true, nil
		}
		evs = append(evs, ev)
	}
	if serr := sc.Err(); serr != nil {
		return evs, true, serr
	}
	return evs, false, nil
}

// awkward are strings whose JSON form needs care: every escape class,
// HTML and JSONP characters, invalid UTF-8, surrogates.
var awkward = []string{
	"", "plain", `quote " and \ backslash`, "tab\tnewline\ncr\rbell\afeed\fback\b",
	"nul\x00 unit\x1f del\x7f", "<script>&amp;</script>", "line\u2028para\u2029sep",
	"ünïcödé ✓ 😀", "bad\xffutf8\xc3", "\xed\xa0\x80 lone surrogate bytes", "\ufffd",
}

// codecCases builds events that between them exercise every Type, every
// field alone and all together, and the numbers and strings the two codecs
// could disagree with encoding/json on.
func codecCases() []Event {
	var cases []Event
	for _, ty := range append([]Type{"", "a type no constant names"}, builtinTypes...) {
		cases = append(cases, Event{Type: ty}, Event{Seq: 7, TimeS: 1.5, Step: -1, Rank: -1, Type: ty})
	}
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, -2.5e-7, 9.99e-7, 1e-6, 1e21, -1e21, 1e20,
		123456789.125, 5e-324, math.MaxFloat64, -math.MaxFloat64, 1.0 / 3, 4.2e-9}
	for _, f := range floats {
		cases = append(cases,
			Event{TimeS: f}, Event{PredTimeS: f}, Event{PredEnergyJ: f}, Event{PredPowerW: f},
			Event{PredEDPJs: f}, Event{Value: f})
	}
	for _, s := range awkward {
		cases = append(cases, Event{Type: Type(s)}, Event{Subject: s}, Event{Detail: s}, Event{Err: s},
			Event{Type: Type(s), Subject: s, Detail: s, Err: s})
	}
	for _, n := range []int{0, 1, -1, 1005, math.MaxInt, math.MinInt} {
		cases = append(cases, Event{Step: n}, Event{Rank: n}, Event{RequestedMHz: n}, Event{AppliedMHz: n})
	}
	for _, n := range []uint64{0, 1, 1 << 53, 1<<53 + 1, math.MaxUint64} {
		cases = append(cases, Event{Seq: n})
	}
	cases = append(cases, Event{Cached: true}, Event{
		Seq: 1<<53 + 1, TimeS: -3.25e-8, Step: 12, Rank: 3, Type: FreqDecision, Subject: "IAD <&>",
		Detail: "cadence", RequestedMHz: 1110, AppliedMHz: 1005, PredTimeS: 1e-7, PredEnergyJ: 87.5,
		PredPowerW: 311.0625, PredEDPJs: 2.5e22, Value: -0.5, Cached: true, Err: "nvml: \x00 busy\xff",
	})
	return cases
}

func TestLedgerCodecMatchesEncodingJSON(t *testing.T) {
	dec := newEventDecoder()
	for _, ev := range codecCases() {
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		var enc eventEncoder
		enc.event(&ev)
		if enc.err != nil || !bytes.Equal(enc.buf, want) {
			t.Errorf("encoder wrote %s (err %v)\nencoding/json %s", enc.buf, enc.err, want)
			continue
		}
		// Read back, the two decoders must agree with each other — not with
		// ev, whose invalid UTF-8 the encoding has replaced.
		var back, got Event
		if err := json.Unmarshal(want, &back); err != nil {
			t.Fatal(err)
		}
		if !dec.decode(bytes.TrimSuffix(want, []byte("\n")), &got) || !reflect.DeepEqual(got, back) {
			t.Errorf("decoder read %s as\n%+v, encoding/json as\n%+v", want, got, back)
		}
	}

	// A value JSON cannot hold fails the export, whichever field holds it.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for _, ev := range []Event{{TimeS: bad}, {PredTimeS: bad}, {PredEnergyJ: bad}, {PredPowerW: bad}, {PredEDPJs: bad}, {Value: bad}} {
			l := NewLedger(4)
			l.Emit(Event{Type: StepDone})
			l.Emit(ev)
			if err := OracleWriteJSONL(l, io.Discard); err == nil {
				t.Fatalf("%+v: the oracle accepted it", ev)
			}
			if err := l.WriteJSONL(io.Discard); err == nil {
				t.Errorf("%+v: WriteJSONL returned no error", ev)
			}
		}
	}
}

// decoderLines are lines the decoder and json.Unmarshal must judge alike:
// what encoding/json accepts beyond the encoder's own output, and what it
// refuses.
var decoderLines = []string{
	`{}`, `null`, ` { "seq" : 3 , "type" : "step" } `, "\t{\"seq\":1}\r",
	`{"SEQ":4,"Type":"x","T_S":2,"ſeq":9,"cached":true,"CACHED":false}`,
	`{"seq":1,"seq":2,"subject":"a","subject":null,"value":null}`,
	`{"seq":5,"type":"escaped 😀 \ud83d \ude00 \/"}`,
	`{"unknown":{"a":[1,2,{"b":null}],"c":"é"},"seq":6,"extra":[[],{}]}`,
	`{"seq":1e3}`, `{"seq":1.0}`, `{"seq":-1}`, `{"seq":18446744073709551616}`, `{"seq":"1"}`,
	`{"step":9223372036854775808}`, `{"step":1.5}`, `{"rank":-0}`, `{"rank":true}`,
	`{"t_s":1e999}`, `{"t_s":-1E-400}`, `{"t_s":"1"}`, `{"t_s":01}`, `{"t_s":1.}`, `{"t_s":.5}`, `{"t_s":+1}`,
	`{"type":7}`, `{"type":{}}`, `{"subject":["a"]}`, `{"cached":"true"}`, `{"cached":1}`, `{"cached":tru}`,
	`{"err":"unterminated}`, `{"err":"bad \x escape"}`, `{"err":"ctl` + "\x01" + `"}`, `{"err":"\ud800"}`, `{"err":"\u12"}`,
	`{"seq":1}{"seq":2}`, `{"seq":1} x`, `{"seq":1,}`, `{,"seq":1}`, `{"seq" 1}`, `{"seq":}`, `{seq:1}`,
	`[]`, `[{"seq":1}]`, `1`, `"x"`, `true`, `nul`, `nulll`, ` `, `{`, `}`, `{"a":[}`, `{"a":[1 2]}`,
	`{"deep":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"deep":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
}

func TestDecoderMatchesEncodingJSONOnForeignLines(t *testing.T) {
	for _, line := range decoderLines {
		requireSameRead(t, []byte(line))
	}
	// And on damaged cuts of those lines and of the encoder's own output: a
	// fixed stretch of what FuzzReadJSONL explores, run on every go test.
	var enc eventEncoder
	for _, ev := range codecCases() {
		enc.event(&ev)
	}
	sources := [][]byte{enc.buf, []byte(strings.Join(decoderLines[:len(decoderLines)-2], "\n"))}
	rng := rand.New(rand.NewSource(19))
	for n := 0; n < 3000; n++ {
		src := sources[n%len(sources)]
		from := rng.Intn(len(src))
		data := bytes.Clone(src[from : from+rng.Intn(min(400, len(src)-from))])
		for k := rng.Intn(4); k > 0 && len(data) > 0; k-- {
			data[rng.Intn(len(data))] = byte(rng.Intn(256))
		}
		requireSameRead(t, data)
	}
}

// requireSameRead holds ReadJSONL to the oracle on one input.
func requireSameRead(t *testing.T, data []byte) {
	t.Helper()
	want, wantTrunc, wantErr := OracleReadJSONL(bytes.NewReader(data))
	got, gotTrunc, gotErr := ReadJSONL(bytes.NewReader(data))
	if (gotErr != nil) != (wantErr != nil) || gotTrunc != wantTrunc {
		t.Fatalf("%.200q: truncated %v err %v, encoding/json gives truncated %v err %v", data, gotTrunc, gotErr, wantTrunc, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%.200q: %d events, encoding/json reads %d", data, len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("%.200q: event %d is\n%+v, encoding/json reads\n%+v", data, i, got[i], want[i])
		}
	}
}

// FuzzReadJSONL holds the hand-written reader to encoding/json on
// arbitrary input: the same events, the same truncated verdict.
func FuzzReadJSONL(f *testing.F) {
	var all bytes.Buffer
	var enc eventEncoder
	for _, ev := range codecCases() {
		enc.event(&ev)
	}
	all.Write(enc.buf)
	f.Add(all.Bytes())
	f.Add([]byte(strings.Join(decoderLines[:len(decoderLines)-2], "\n")))
	for _, line := range decoderLines[:len(decoderLines)-2] {
		f.Add([]byte(`{"seq":1,"type":"step"}` + "\n\n" + line + "\r\n" + `{"seq":3}`))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSameRead(t, data)
	})
}

// TestReadJSONLMalformedMiddle pins what a damaged line in the middle of a
// ledger does: the parse ends there, truncated is set, and every later
// line — however valid — is dropped. The byte count ReadFile reports is
// what makes that loss visible.
func TestReadJSONLMalformedMiddle(t *testing.T) {
	l := NewLedger(0)
	for i := 0; i < 6; i++ {
		l.Emit(decision(float64(i), i, 0, "IAD", 1005, 1005))
	}
	var buf bytes.Buffer
	if err := l.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(buf.String(), "\n")
	damaged := strings.Replace(lines[2], `"type"`, `"type`, 1)
	file := lines[0] + "\n" + lines[1] + damaged + strings.Join(lines[3:], "")

	evs, truncated, err := ReadJSONL(strings.NewReader(file))
	if err != nil || !truncated {
		t.Fatalf("truncated %v err %v, want truncated and no error", truncated, err)
	}
	if len(evs) != 2 || evs[1].Seq != 2 {
		t.Fatalf("read %d events ending at %+v, want the two before the damage", len(evs), evs[len(evs)-1])
	}
	_, valid, _, _ := readJSONL(strings.NewReader(file))
	if want := int64(len(lines[0]) + 1 + len(lines[1])); valid != want {
		t.Errorf("valid prefix is %d bytes, want %d (two lines and the blank one between)", valid, want)
	}

	path := t.TempDir() + "/events.jsonl"
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	evs, beyond, err := ReadFile(path)
	if err != nil || len(evs) != 2 {
		t.Fatalf("ReadFile: %d events, err %v", len(evs), err)
	}
	if want := int64(len(damaged) + len(strings.Join(lines[3:], ""))); beyond != want {
		t.Errorf("ReadFile reports %d bytes beyond the valid prefix, want %d", beyond, want)
	}
	if err := l.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if evs, beyond, err = ReadFile(path); err != nil || len(evs) != 6 || beyond != 0 {
		t.Errorf("whole file: %d events, %d bytes beyond, err %v; want 6, 0, nil", len(evs), beyond, err)
	}
}

// TestWriteJSONLFollowsARotatingRing exports a ring that has wrapped: the
// file is the retained events, oldest first.
func TestWriteJSONLFollowsARotatingRing(t *testing.T) {
	const ringCap = 3000
	l := NewLedger(ringCap)
	for i := 0; i < 2*ringCap+17; i++ {
		l.Emit(decision(float64(i), i, i%8, "MomentumEnergy", 1110, 1005))
	}
	var want, got bytes.Buffer
	if err := OracleWriteJSONL(l, &want); err != nil {
		t.Fatal(err)
	}
	if err := l.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("export of a wrapped ring differs from the oracle's")
	}
	evs, truncated, err := ReadJSONL(&got)
	if err != nil || truncated || len(evs) != ringCap || evs[0].Seq != ringCap+18 {
		t.Fatalf("read back %d events from seq %d, truncated %v, err %v", len(evs), evs[0].Seq, truncated, err)
	}
}
