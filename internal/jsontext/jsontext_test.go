package jsontext

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
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
