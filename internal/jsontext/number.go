package jsontext

import (
	"math"
	"math/bits"
	"strconv"
)

// AppendFloat appends f as encoding/json renders a float64: shortest
// round-trip digits, plain notation except below 1e-6 and from 1e21, where
// the exponent form drops the zero strconv pads a one-digit negative
// exponent with. NaN and the infinities have no JSON form: ok is false and
// dst comes back as it was.
//
// The plain range, where the numbers of a trace and of a ledger lie, is
// converted here (shortest) and rendered straight from the digits; zero,
// the exponent form and the refusals go to strconv.
func AppendFloat(dst []byte, f float64) (out []byte, ok bool) {
	switch abs := math.Abs(f); {
	case abs >= 1e-6 && abs < 1e21:
		return appendPlain(dst, f), true
	case f == 0:
		return strconv.AppendFloat(dst, f, 'f', -1, 64), true
	case math.IsInf(f, 0) || math.IsNaN(f):
		return dst, false
	}
	dst = strconv.AppendFloat(dst, f, 'e', -1, 64)
	if n := len(dst); dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, true
}

// shortest returns the shortest decimal d·10^e that reads back as f, the
// one closest to f when there are several, the even one on a tie — the
// digits strconv's shortest formatting picks — for a finite f with
// 1e-6 ≤ |f| < 1e21. d may end in zeros.
//
// f = c·2^q. An exact integer below 2^53 is its own answer. Any other f is
// converted by Schubfach (R. Giulietti, "The Schubfach way to render
// doubles", 2020): with k the largest exponent whose 10^k is at most the
// spacing of the doubles at f (3/4 of it for a power of two), the bounds of f's rounding interval and f
// itself are scaled by 4·10^-k, each by one 64×128-bit product against a
// 126-bit power of ten rounded to odd, which keeps every comparison below
// with a multiple of 4 exact. s = ⌊f·10^-k⌋ then has 16 or 17 digits and
// the interval, under 10 units wide, holds at most one multiple of 10:
// that one if it is there, else whichever of s and s+1 lies inside,
// else the nearer of the two.
func shortest(f float64) (d uint64, e int) {
	b := math.Float64bits(f)
	c := b&(1<<52-1) | 1<<52
	q := int(b>>52&0x7ff) - 1075
	if -52 <= q && q <= 0 && c&(1<<-q-1) == 0 {
		return c >> -q, 0
	}
	odd := c & 1
	cb := c << 2
	cbr := cb + 2
	cbl := cb - 2
	var k int
	if c != 1<<52 {
		k = (q * 661971961083) >> 41 // ⌊q·log10(2)⌋
	} else {
		// A power of two: the double below is half as far as the one above.
		cbl = cb - 1
		k = (q*661971961083 - 274743187321) >> 41 // ⌊log10(3/4·2^q)⌋
	}
	h := q + ((-k * 913124641741) >> 38) + 2 // q + ⌊-k·log2(10)⌋ + 2, in [1, 5]
	g := &pow10Inv[k-minPow10Inv]
	vb := roundOdd(g, cb<<h)
	vbl := roundOdd(g, cbl<<h)
	vbr := roundOdd(g, cbr<<h)

	s := vb >> 2
	sp := s / 10 * 10
	upin := vbl+odd <= sp<<2
	wpin := (sp+10)<<2+odd <= vbr
	if upin != wpin {
		if wpin {
			sp += 10
		}
		return sp, k
	}
	uin := vbl+odd <= s<<2
	win := (s+1)<<2+odd <= vbr
	if uin != win {
		if win {
			s++
		}
		return s, k
	}
	if mid := (2*s + 1) << 1; vb > mid || vb == mid && s&1 == 1 {
		s++
	}
	return s, k
}

// roundOdd returns ⌊g·x / 2^127⌋ with its lowest bit set when the bits
// between 2^64 and 2^127 of the product are not all 0: g is one of
// pow10Inv's (hi, lo) pairs and x < 2^60. The bits below 2^64 are left
// out, and that makes it exact. For k ≤ 0, g is 10^-k·2^-r, which ends in
// 64 zero bits, plus the 1 of its low word, whose product x is all they
// hold. For k > 0, f·10^-k is a fraction of denominator 5^k ≤ 3125, so
// either an integer, which g's excess of less than 1 moves by less than
// x·2^-127 < 2^-67, or at least 1/3125 away from one.
func roundOdd(g *[2]uint64, x uint64) uint64 {
	x1, _ := bits.Mul64(x, g[1])
	y1, y0 := bits.Mul64(x, g[0])
	mid, carry := bits.Add64(y0, x1, 0)
	v := (y1+carry)<<1 | mid>>63
	if mid<<1 != 0 {
		v |= 1
	}
	return v
}

// minPow10Inv is the k of pow10Inv's first entry.
const minPow10Inv = -22

// pow10Inv[k+22] is ⌊10^-k·2^-r⌋ + 1 with r = ⌊-k·log2(10)⌋ - 125, a
// number of 126 bits, as its high and low 64, for the k ∈ [-22, 5] that
// shortest meets: the exponents of the doubles from 1e-6 up to 1e21.
// TestPow10InvTable recomputes it.
var pow10Inv = [28][2]uint64{
	{0x21e19e0c9bab2400, 0x0000000000000001}, // -22
	{0x3635c9adc5dea000, 0x0000000000000001},
	{0x2b5e3af16b188000, 0x0000000000000001},
	{0x22b1c8c1227a0000, 0x0000000000000001},
	{0x3782dace9d900000, 0x0000000000000001},
	{0x2c68af0bb1400000, 0x0000000000000001},
	{0x2386f26fc1000000, 0x0000000000000001},
	{0x38d7ea4c68000000, 0x0000000000000001},
	{0x2d79883d20000000, 0x0000000000000001},
	{0x246139ca80000000, 0x0000000000000001},
	{0x3a35294400000000, 0x0000000000000001},
	{0x2e90edd000000000, 0x0000000000000001},
	{0x2540be4000000000, 0x0000000000000001},
	{0x3b9aca0000000000, 0x0000000000000001},
	{0x2faf080000000000, 0x0000000000000001},
	{0x2625a00000000000, 0x0000000000000001},
	{0x3d09000000000000, 0x0000000000000001},
	{0x30d4000000000000, 0x0000000000000001},
	{0x2710000000000000, 0x0000000000000001},
	{0x3e80000000000000, 0x0000000000000001},
	{0x3200000000000000, 0x0000000000000001},
	{0x2800000000000000, 0x0000000000000001},
	{0x2000000000000000, 0x0000000000000001}, // 0
	{0x3333333333333333, 0x3333333333333334},
	{0x28f5c28f5c28f5c2, 0x8f5c28f5c28f5c29},
	{0x20c49ba5e353f7ce, 0xd916872b020c49bb},
	{0x346dc5d63886594a, 0xf4f0d844d013a92b},
	{0x29f16b11c6d1e108, 0xc3f3e0370cdc8755}, // 5
}

// digitPairs holds the two-digit strings 00 through 99, back to back.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839" +
	"40414243444546474849505152535455565758596061626364656667686970717273747576777879" +
	"8081828384858687888990919293949596979899"

// appendPlain appends f, with 1e-6 ≤ |f| < 1e21, as strconv's 'f' format
// writes its shortest digits: the integer part, zeros padded up to the
// point, and a fraction only when a digit of it is not 0.
func appendPlain(dst []byte, f float64) []byte {
	d, e := shortest(f)
	// The digits end at buf[end]: room before them for a sign, "0." and
	// five zeros, room after for the zeros up to a point e places on.
	var buf [48]byte
	const end = 40
	i := end
	for d >= 100 {
		q := d / 100
		r := (d - q*100) * 2
		i -= 2
		buf[i], buf[i+1] = digitPairs[r], digitPairs[r+1]
		d = q
	}
	if d >= 10 {
		i -= 2
		buf[i], buf[i+1] = digitPairs[2*d], digitPairs[2*d+1]
	} else {
		i--
		buf[i] = byte('0' + d)
	}
	j := end
	if e >= 0 {
		for ; e > 0; e-- {
			buf[j] = '0'
			j++
		}
	} else {
		point := j + e // where the point stands among the digits
		for j > point && buf[j-1] == '0' {
			j--
		}
		switch {
		case j == point: // no fraction left
		case point > i:
			copy(buf[i-1:], buf[i:point])
			i--
			buf[point-1] = '.'
		default:
			for ; i > point; i-- {
				buf[i-1] = '0'
			}
			i -= 2
			buf[i], buf[i+1] = '0', '.'
		}
	}
	if f < 0 {
		i--
		buf[i] = '-'
	}
	return append(dst, buf[i:j]...)
}

// Float interprets a value as a number, 0 when absent or null; ok=false
// for another type or a number no float64 holds. The result is
// strconv.ParseFloat's, bit for bit. A literal -?d+(.d+)? of at most 19
// significant digits, read as m·10^-k, is converted here with one
// rounding: by an IEEE division when m ≤ 2^53 and k ≤ 22, by divide when
// k ≤ 19. Every other literal goes to strconv.
func Float(val []byte) (f float64, ok bool) {
	if !Present(val) {
		return 0, true
	}
	if c := val[0]; c != '-' && (c < '0' || c > '9') {
		return 0, false
	}
	if m, k, ok := decimal(val); ok && (m <= 1<<53 || k <= 19) {
		if m <= 1<<53 {
			// m and 10^k are both float64s exactly, so m/10^k is one
			// correctly rounded IEEE division (Clinger's fast path).
			f = float64(m) / pow10[k]
		} else {
			f = divide(m, k)
		}
		if val[0] == '-' {
			f = -f
		}
		return f, true
	}
	f, err := strconv.ParseFloat(string(val), 64)
	return f, err == nil
}

// decimal reads a literal -?d+(.d+)? as m·10^-k: m from all its digits, k
// the count of those after the point. ok=false for any other literal, for
// more than 19 significant digits (m < 10^19 fits a uint64) and for more
// than 22 fraction digits.
func decimal(lit []byte) (m uint64, k int, ok bool) {
	b := lit
	if b[0] == '-' {
		b = b[1:]
	}
	point, sig := -1, 0
	for i, c := range b {
		switch {
		case c-'0' <= 9:
			if m != 0 || c != '0' {
				if sig++; sig > 19 {
					return 0, 0, false
				}
				m = m*10 + uint64(c-'0')
			}
		case c == '.' && point < 0 && i > 0:
			point = i
		default:
			return 0, 0, false
		}
	}
	if point >= 0 {
		if k = len(b) - point - 1; k == 0 || k >= len(pow10) {
			return 0, 0, false
		}
	}
	return m, k, len(b) > 0
}

// pow10 holds the powers of ten a float64 holds exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// divide returns m/10^k rounded once, to nearest with ties to even, for
// m > 0 and k ≤ 19. Both are shifted until their top bits are set; the
// 128-bit numerator m·2^64 (or m·2^63 when m's digits outrun 10^k's) over
// 10^k leaves a 64-bit quotient whose top 53 bits are the result's, the
// rest and the remainder deciding the rounding.
func divide(m uint64, k int) float64 {
	p := uint64(pow10[k]) // exact: 10^19 < 2^64, and 5^19 < 2^53
	lm, lp := bits.LeadingZeros64(m), bits.LeadingZeros64(p)
	m, p = m<<lm, p<<lp
	e := lp - lm - 53
	hi, lo := m, uint64(0)
	if m >= p {
		hi, lo = m>>1, m<<63
		e++
	}
	quo, rem := bits.Div64(hi, lo, p)
	mant := quo >> 11
	if tail := quo & (1<<11 - 1); tail > 1<<10 || tail == 1<<10 && (rem != 0 || mant&1 == 1) {
		if mant++; mant == 1<<53 {
			mant >>= 1
			e++
		}
	}
	return math.Float64frombits(uint64(e+52+1023)<<52 | mant&(1<<52-1))
}

// Int interprets a value as an int, 0 when absent or null, as encoding/json
// stores an integer literal in one; ok=false for another type, a fraction
// or an exponent, or a number no int holds. A literal -?d{1,18}, which no
// int overflows, is read here; every other one goes to strconv.
func Int(val []byte) (n int, ok bool) {
	if !Present(val) {
		return 0, true
	}
	digits := val
	if val[0] == '-' {
		digits = val[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return parseInt(val)
	}
	for _, c := range digits {
		if c -= '0'; c > 9 {
			return parseInt(val)
		}
		n = n*10 + int(c)
	}
	if len(digits) < len(val) {
		n = -n
	}
	return n, true
}

// parseInt is Int through strconv.
func parseInt(val []byte) (int, bool) {
	n, err := strconv.ParseInt(string(val), 10, strconv.IntSize)
	return int(n), err == nil
}
