package jsontext

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// TestPow10InvTable recomputes shortest's table of scaled powers of ten
// with math/big, and checks its exponent estimates over every binary
// exponent q of a double from 1e-6 up to 1e21: k = ⌊q·log10(2)⌋, or
// ⌊log10(3/4·2^q)⌋ for a power of two, within the table, and h in [1, 5],
// which keeps the scaled bounds, 4c·2^h, under 2^60.
func TestPow10InvTable(t *testing.T) {
	ten := big.NewInt(10)
	for i, got := range pow10Inv {
		k := i + minPow10Inv
		r := (-k*913124641741)>>38 - 125
		num, den := big.NewInt(1), big.NewInt(1)
		if k < 0 {
			num.Exp(ten, big.NewInt(int64(-k)), nil)
		} else {
			den.Exp(ten, big.NewInt(int64(k)), nil)
		}
		if r < 0 {
			num.Lsh(num, uint(-r))
		} else {
			den.Lsh(den, uint(r))
		}
		g := num.Quo(num, den)
		g.Add(g, big.NewInt(1))
		want := [2]uint64{new(big.Int).Rsh(g, 64).Uint64(), g.Uint64()}
		if g.BitLen() != 126 || got != want {
			t.Errorf("pow10Inv for k=%d is %#x; math/big computes %#x (%d bits)", k, got, want, g.BitLen())
		}
	}

	qMin := int(math.Float64bits(1e-6)>>52&0x7ff) - 1075
	qMax := int(math.Float64bits(1e21)>>52&0x7ff) - 1075
	pow := func(base, exp int) *big.Rat { // base^exp, exactly
		p := new(big.Int).Exp(big.NewInt(int64(base)), big.NewInt(int64(max(exp, -exp))), nil)
		if exp < 0 {
			return new(big.Rat).SetFrac(big.NewInt(1), p)
		}
		return new(big.Rat).SetInt(p)
	}
	for q := qMin; q <= qMax; q++ {
		for _, threeQuarters := range []bool{false, true} {
			k := (q * 661971961083) >> 41
			x := pow(2, q)
			if threeQuarters {
				k = (q*661971961083 - 274743187321) >> 41
				x.Mul(x, big.NewRat(3, 4))
			}
			// 10^k ≤ x < 10^(k+1)
			if x.Cmp(pow(10, k)) < 0 || x.Cmp(pow(10, k+1)) >= 0 {
				t.Errorf("q=%d (3/4: %v): k=%d is not ⌊log10⌋", q, threeQuarters, k)
			}
			if k < minPow10Inv || k >= minPow10Inv+len(pow10Inv) {
				t.Errorf("q=%d: k=%d is outside the table", q, k)
			}
			if h := q + (-k*913124641741)>>38 + 2; h < 1 || h > 5 {
				t.Errorf("q=%d: h=%d", q, h)
			}
		}
	}
}

// TestIntMatchesStrconv holds Int to strconv.ParseInt on integer literals
// at the edges of its short path, and on the values it refuses.
func TestIntMatchesStrconv(t *testing.T) {
	for _, lit := range []string{"0", "-0", "7", "-7", "12", "999999999999999999", "-999999999999999999",
		"123456789012345678", "1234567890123456789", "-1234567890123456789", "9223372036854775807",
		"-9223372036854775808", "9223372036854775808", "-9223372036854775809", "12345678901234567890",
		"-12345678901234567890", "00", "-", "1.5", "1e3", "-1.0", `"5"`, "true", "1 "} {
		want, err := strconv.ParseInt(lit, 10, strconv.IntSize)
		got, ok := Int([]byte(lit))
		if ok != (err == nil) || ok && got != int(want) {
			t.Errorf("Int(%s) = %d, %v; strconv reads %d, %v", lit, got, ok, want, err)
		}
	}
	if n, ok := Int([]byte("null")); n != 0 || !ok {
		t.Errorf("Int(null) = %d, %v; want 0, true as for an absent value", n, ok)
	}
}

// FuzzAppendFloat holds AppendFloat to encoding/json on arbitrary float64
// bits. The seeds stand where the shortest digits are hardest to find:
// powers of two, whose rounding interval is lopsided; 2^53 and integers
// past it, which leave the exact-integer shortcut; the edges of the plain
// range and their neighbours; the least subnormal; and 17-digit
// timestamps and durations of a recorded trace.
func FuzzAppendFloat(f *testing.F) {
	seeds := []float64{5e-324, 1e-6, 1e21, 9007199254740992, 9007199254740994, 18014398509481988,
		72057594037927950, 1e20, 123456789012345680000, 13719177.508230112, 13725813.796553968,
		1091.2445876089473, 36467.251621504496, 520824.00824177655, 0.30000000000000004}
	for _, p := range []int{-20, -19, 0, 1, 52, 53, 60, 69} {
		seeds = append(seeds, math.Ldexp(1, p))
	}
	for _, x := range []float64{1e-6, 1e21, math.Ldexp(1, 53)} {
		seeds = append(seeds, math.Nextafter(x, 0), math.Nextafter(x, math.Inf(1)))
	}
	for _, x := range seeds {
		f.Add(math.Float64bits(x))
		f.Add(math.Float64bits(-x))
	}
	f.Fuzz(func(t *testing.T, b uint64) {
		x := math.Float64frombits(b)
		got, ok := AppendFloat(nil, x)
		want, err := json.Marshal(x)
		if ok != (err == nil) || ok && string(got) != string(want) {
			t.Fatalf("AppendFloat(%v) = %s, %v; encoding/json writes %s, %v", x, got, ok, want, err)
		}
	})
}

// timestamps returns a fixed set of trace timestamps in microseconds,
// between 1 and 100 s into a run, each of whose shortest forms has 17
// significant digits, as most of a recorded trace's do.
func timestamps() []float64 {
	rng := rand.New(rand.NewSource(1))
	ts := make([]float64, 0, 1024)
	for len(ts) < cap(ts) {
		x := 1e6 + rng.Float64()*99e6
		if digits := strconv.FormatFloat(x, 'e', -1, 64); len(digits) == len("1.2345678901234567e+07") {
			ts = append(ts, x)
		}
	}
	return ts
}

// perValue reports the benchmark's time per number converted.
func perValue(b *testing.B, n int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/value")
}

// The benchmarks' results, kept where the compiler cannot drop the calls.
var (
	sinkText  []byte
	sinkFloat float64
)

// BenchmarkAppendFloat writes timestamps() as AppendFloat does and as
// strconv's shortest 'f' formatting does, in ns/value.
func BenchmarkAppendFloat(b *testing.B) {
	ts := timestamps()
	buf := make([]byte, 0, 32*len(ts))
	b.Run("jsontext", func(b *testing.B) {
		for range b.N {
			buf = buf[:0]
			for _, x := range ts {
				buf, _ = AppendFloat(buf, x)
			}
		}
		perValue(b, len(ts))
		sinkText = buf
	})
	b.Run("strconv", func(b *testing.B) {
		for range b.N {
			buf = buf[:0]
			for _, x := range ts {
				buf = strconv.AppendFloat(buf, x, 'f', -1, 64)
			}
		}
		perValue(b, len(ts))
		sinkText = buf
	})
}

// BenchmarkFloat reads timestamps()' literals back as Float does and as
// strconv.ParseFloat does, in ns/value.
func BenchmarkFloat(b *testing.B) {
	var lits [][]byte
	for _, x := range timestamps() {
		lit, _ := AppendFloat(nil, x)
		lits = append(lits, lit)
	}
	b.Run("jsontext", func(b *testing.B) {
		sum := 0.0
		for range b.N {
			for _, lit := range lits {
				f, _ := Float(lit)
				sum += f
			}
		}
		perValue(b, len(lits))
		sinkFloat = sum
	})
	b.Run("strconv", func(b *testing.B) {
		sum := 0.0
		for range b.N {
			for _, lit := range lits {
				f, _ := strconv.ParseFloat(string(lit), 64)
				sum += f
			}
		}
		perValue(b, len(lits))
		sinkFloat = sum
	})
}
