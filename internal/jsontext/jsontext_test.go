package jsontext

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	cases := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999e-7, -2.5e-7, 1e-9, 5e-324,
		1e20, 1e21, -1e21, 1.5e300, math.MaxFloat64, 123456789.125, 1.0 / 3, 1e-10, 1.25e-100,
		math.NaN(), math.Inf(1), math.Inf(-1)}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 2000; i++ {
		cases = append(cases, math.Float64frombits(rng.Uint64()), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(60)-30)))
	}
	for _, f := range cases {
		got, ok := AppendFloat([]byte("x"), f)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			if ok || string(got) != "x" {
				t.Errorf("AppendFloat(%v) = %q, %v; want it refused and the buffer untouched", f, got, ok)
			}
			continue
		}
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(got[1:]) != string(want) {
			t.Errorf("AppendFloat(%v) = %s, %v; encoding/json writes %s", f, got[1:], ok, want)
		}
	}
}

// TestUnquoteMatchesEncodingJSON decodes string literals built from every
// kind of escape — valid and broken surrogate pairs among them — and raw
// bytes, valid UTF-8 or not, as encoding/json decodes them. Each literal is
// first passed over by the scanner, which is what makes it safe to unquote.
func TestUnquoteMatchesEncodingJSON(t *testing.T) {
	pieces := []string{`a`, "\u00e9", "\U0001F600", `\"`, `\\`, `\/`, `\b`, `\f`, `\n`, `\r`, `\t`,
		`\u0041`, `\u00e9`, `\u2028`, `\ud83d\ude00`, `\ud83d`, `\ude00`, `\ud83d\u0041`, `\ud83d\ud83d\ude00`,
		`\uDE00\uD83D`, `\ufffd`, `\u0000`, "\xff", "\xc3", "\xed\xa0\x80", "\xf0\x9f", "\u2028", `<>&`}
	rng := rand.New(rand.NewSource(19))
	for n := 0; n < 5000; n++ {
		var lit strings.Builder
		lit.WriteByte('"')
		for k := rng.Intn(6); k > 0; k-- {
			lit.WriteString(pieces[rng.Intn(len(pieces))])
		}
		lit.WriteByte('"')
		var want string
		if err := json.Unmarshal([]byte(lit.String()), &want); err != nil {
			t.Fatalf("%s: encoding/json refuses it: %v", lit.String(), err)
		}
		s := Scanner{Data: []byte(lit.String())}
		if err := s.Skip(); err != nil || s.Pos != len(s.Data) {
			t.Fatalf("%s: the scanner stops at %d: %v", lit.String(), s.Pos, err)
		}
		got, ok := Text(s.Data)
		if !ok || string(got) != want {
			t.Fatalf("Text(%s) = %q, %v; encoding/json reads %q", lit.String(), got, ok, want)
		}
	}
}

// TestScannerJudgesSyntaxAsEncodingJSON walks documents, sound and
// damaged, and agrees with json.Valid on each.
func TestScannerJudgesSyntaxAsEncodingJSON(t *testing.T) {
	docs := []string{`{}`, `[]`, `null`, `true`, `false`, `0`, `-0`, `-1.5e+10`, `1E-2`, `"s"`, ` [1, {"a": [null, true], "b": {}}] `,
		`{"a":1,"a":2}`, `{"k\u0041":"v"}`, "[1,\n2]\t", `01`, `1.`, `.5`, `+1`, `-`, `1e`, `tru`, `nul`, `[1,]`, `[,1]`, `{"a"}`,
		`{"a":}`, `{a:1}`, `{"a":1,}`, `"unterminated`, `"bad \x"`, `"\u12g4"`, "\"ctl\x01\"", `[1 2]`, `{"a":1 "b":2}`, ``, ` `, `[`, `{`, `]`,
		strings.Repeat("[", MaxDepth) + strings.Repeat("]", MaxDepth),
		strings.Repeat("[", MaxDepth+1) + strings.Repeat("]", MaxDepth+1)}
	const damage = `{}[]",:\ 019.eE-+tfn`
	rng := rand.New(rand.NewSource(19))
	for _, d := range docs[:len(docs)-2] {
		for k := 0; k < 20 && len(d) > 0; k++ {
			b := []byte(d)
			b[rng.Intn(len(b))] = damage[rng.Intn(len(damage))]
			docs = append(docs, string(b))
		}
	}
	for _, d := range docs {
		s := Scanner{Data: []byte(d)}
		err := s.Skip()
		if s.Space(); err == nil && s.Pos != len(s.Data) {
			err = s.Syntax("the end of the document")
		}
		if want := json.Valid([]byte(d)); (err == nil) != want {
			t.Errorf("%.60q: scanner says %v, json.Valid says %v", d, err, want)
		}
	}

	// Members hands over decoded keys and raw values.
	var keys, vals []string
	s := Scanner{Data: []byte(`{"plain":1,"\u0065scaped": "v" ,"\u00e9":[1, 2],"n":null}`)}
	if err := s.Members(func(key, val []byte) {
		keys, vals = append(keys, string(key)), append(vals, string(val))
	}); err != nil {
		t.Fatal(err)
	}
	if strings.Join(keys, "|") != "plain|escaped|\u00e9|n" || strings.Join(vals, "|") != `1|"v"|[1, 2]|null` {
		t.Errorf("Members visited keys %q with values %q", keys, vals)
	}
	if !Present([]byte(`0`)) || Present([]byte(`null`)) || Present(nil) {
		t.Error("Present misjudges 0, null or an absent value")
	}
	if f, ok := Float([]byte(`-2.5e-7`)); !ok || f != -2.5e-7 {
		t.Errorf("Float(-2.5e-7) = %v, %v", f, ok)
	}
	if _, ok := Float([]byte(`"1"`)); ok {
		t.Error("Float accepted a string")
	}
	if _, ok := Float([]byte(`1e999`)); ok {
		t.Error("Float accepted a number no float64 holds")
	}
	if txt, ok := Text([]byte(`7`)); ok || !bytes.Equal(txt, []byte(`7`)) {
		t.Errorf("Text(7) = %q, %v; want the value back and ok=false", txt, ok)
	}
}

// FuzzFloat holds Float to strconv.ParseFloat on every literal the scanner
// accepts as one number, value bits and verdict alike. The seeds stand at
// the edges of the paths converted here: a mantissa at and past 2^53, one
// past it whose two roundings differ, 10^19 - 1 (the largest read here)
// against 10^19 and 2^64 - 1, 19 against 20 significant digits, 19, 20, 22
// and 23 fraction digits, fractions behind leading zeros, 17-digit literals
// exactly halfway between two doubles, negative zero, and exponents
// strconv alone reads.
func FuzzFloat(f *testing.F) {
	for _, seed := range []string{"9007199254740992", "9007199254740993", "-9007199254740993.5",
		"913996208434079.7", "990997441.4579967", "1234567890123456789", "12345678901234567890",
		"9999999999999999999", "10000000000000000000", "18446744073709551615",
		"-1844674407370955161.5", "123456789.0123456789", "1234567890.1234567890",
		"0.1234567890123456789", "0.12345678901234567890", "1.0000000000000000001",
		"0.0000000000000000000001", "0.00000000000000000000001", "1.0000000000000000000001",
		"0.0012345678901234567", "0.00012345678901234567", "0.000001234567890123456789",
		"0.00000000000000000012345678901234567", "72057594037927944", "72057594037927960",
		"4503599627370497.5", "4503599627370498.5", "-0", "-0.0", "0", "0.0", "1e22", "1e23",
		"5e-324", "1e400", "-1e-400", "0.30000000000000004", "36467.251621504496",
		"13719177.508230112", "137.35466666666665", "1005", "-3.5"} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, lit []byte) {
		if len(lit) == 0 || lit[0] != '-' && (lit[0] < '0' || lit[0] > '9') {
			return
		}
		if s := (Scanner{Data: lit}); s.Skip() != nil || s.Pos != len(lit) {
			return
		}
		want, err := strconv.ParseFloat(string(lit), 64)
		got, ok := Float(lit)
		if math.Float64bits(got) != math.Float64bits(want) || ok != (err == nil) {
			t.Fatalf("Float(%s) = %v (%#x), %v; strconv reads %v (%#x), %v",
				lit, got, math.Float64bits(got), ok, want, math.Float64bits(want), err)
		}
	})
}
