package core

import "math"

// powFast computes f ≈ v^γ in float64 for a normal v in (0, 1] and γ in
// (0, 2], and reports ok only when float32(f) is certainly
// float32(math.Pow(float64(v), γ)); the ISP transformation's sweep calls
// math.Pow where it is not. For γ in (0, 2] it also answers +0 → +0,
// math.Pow's own special case. Everything else — NaN, −0, v < 0, v > 1, a
// subnormal v, γ outside (0, 2] — reports !ok.
//
// Method. v = 2^e·m with m in [1, 2), both exact from v's bits. The top 8
// fraction bits j pick inv_j ≈ 1/(1 + (j+½)/256), kept to 29 significant bits
// so that r = m·inv_j − 1 is exact (a 24-bit by 29-bit product, then a
// Sterbenz subtraction), |r| ≤ 2^-9 + 2^-28. Then
// log2 v = e + log2(1/inv_j) + log1p(r)/ln 2: the middle term from the table,
// the last a degree-5 Taylor polynomial. y = γ·log2 v is formed as 256·y and
// split as n + u, n the nearest integer, |u| ≤ ½ (u exact), and
// 2^y = 2^⌊n/256⌋ · 2^((n mod 256)/256) · 2^(u/256): an exact scaling, the
// table, and a degree-4 Taylor polynomial.
//
// Error. With the tables within a few ulps (math.Log2, math.Exp2), log2 v is
// within 1.1·2^-47 absolute: the final add of e rounds at 2^-47 (|e| ≤ 126),
// and the table, the truncation (|r|^6/(6 ln 2) < 2^-56) and the other
// roundings add under 2^-51. So y is within 1.6·2^-46 (γ ≤ 2, and the
// product rounds at 2^-47 since |y| < 126 on the fast path), which is
// 1.1·2^-46 relative in 2^y; the exp2 table, the truncation (under 2^-54)
// and the roundings add under 2^-50. The fast value is within 2^-45 of v^γ,
// relative. Go's pow, for γ in (0, 2], is Exp(yf·Log v) with |yf| ≤ ½ times
// at most one rounded multiply by v's mantissa or its exact square, then an
// exact Ldexp (Sqrt for γ = ½, v itself for γ = 1). With |yf·Log v| ≤ 44 and
// Log and Exp within an ulp or two, it too is within 2^-45 of v^γ. The two
// values differ by under 2^-44.
//
// Certificate. Rounding a float64 f to float32 drops its low 29 mantissa
// bits, and the result depends only on which side of the half-way point,
// residue 2^28, f lies (the float32 values, residue 0, are not boundaries). A
// residue more than 2^18 from 2^28 puts f more than 2^-35·f from every
// rounding boundary, far beyond the 2^-44 between f and math.Pow's value, so
// both round to the same float32. Inside that guard band (2^-10 of all
// residues), or when n < −125·256 (a result near or below float32's smallest
// normal, where rounding keeps fewer bits), powFast reports !ok. The band is
// 2^9 times the bound, so the argument holds for a libm or tables hundreds
// of ulps worse than assumed.
func powFast(v float32, gamma float64) (float64, bool) {
	if !(gamma > 0 && gamma <= 2) {
		return 0, false
	}
	// The arithmetic runs on every bit pattern, harmlessly: the table indexes
	// are masked, and for γ ≤ 2 the scale's exponent stays in range.
	b := math.Float32bits(v)
	lc := &powLogTab[b>>15&0xff]
	r := math.Float64frombits(uint64(b&0x7fffff)<<29|0x3ff<<52)*lc.inv - 1
	// Both polynomials are evaluated in Estrin's scheme, for a shorter
	// dependency chain than Horner's.
	r2 := r * r
	q := r*(1/math.Ln2) + r2*(-1/(2*math.Ln2)+r*(1/(3*math.Ln2))) + r2*r2*(-1/(4*math.Ln2)+r*(1/(5*math.Ln2)))
	y := gamma * 256 * (float64(int(b>>23&0xff)-127) + (lc.log2 + q))
	// Adding 1.5·2^52 rounds 256·y to the integer n in the low mantissa bits.
	const shift = 0x1.8p52
	t := y + shift
	n := int64(math.Float64bits(t) - math.Float64bits(shift))
	u := y - (t - shift)
	const c = math.Ln2 / 256
	u2 := u * u
	p := 1 + u*c + u2*(c*c/2+u*(c*c*c/6)) + u2*u2*(c*c*c*c/24)
	f := p * (powExp2Tab[n&0xff] * math.Float64frombits(uint64(n>>8+1023)<<52))
	// The result is chosen without a branch, so a clamped image's exact zeros
	// cost no mispredictions. keep is all ones for a normal v in (0, 1] with
	// n ≥ −125·256; otherwise the bits are +0 for v = +0, which the
	// certificate passes, and a residue of exactly 2^28, which it fails.
	keep := -((uint64(b-0x00800000) - 0x3f000001) >> 63 &^ (uint64(n+125*256) >> 63))
	fb := math.Float64bits(f)&keep | uint64(min(b, 1))<<28&^keep
	return math.Float64frombits(fb), fb&(1<<29-1)-(1<<28-1<<18) > 1<<19
}

// powLogTab[j] holds inv_j and log2(1/inv_j); powExp2Tab[i] is 2^(i/256).
var (
	powLogTab  [256]struct{ inv, log2 float64 }
	powExp2Tab [256]float64
)

func init() {
	for j := range powLogTab {
		inv := 1 / (1 + (float64(j)+0.5)/256)
		inv = math.Float64frombits(math.Float64bits(inv) &^ (1<<24 - 1))
		powLogTab[j].inv, powLogTab[j].log2 = inv, -math.Log2(inv)
		powExp2Tab[j] = math.Exp2(float64(j) / 256)
	}
}
