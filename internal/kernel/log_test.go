package kernel

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// ulpDiff is the distance between two finite float64s of equal sign in
// units in the last place.
func ulpDiff(a, b float64) uint64 {
	ia, ib := math.Float64bits(a), math.Float64bits(b)
	if ia&(1<<63) != ib&(1<<63) {
		return ia&^(1<<63) + ib&^(1<<63)
	}
	if ia > ib {
		return ia - ib
	}
	return ib - ia
}

func TestLogAgainstMathLog(t *testing.T) {
	// Log-uniform over the whole normal range: uniform exponent, uniform
	// mantissa bits.
	rng := rand.New(rand.NewSource(1))
	var worst uint64
	for i := 0; i < 1_000_000; i++ {
		x := math.Float64frombits(uint64(1+rng.Intn(2046))<<52 | rng.Uint64()>>12)
		got, want := log(x), math.Log(x)
		d := ulpDiff(got, want)
		if d > worst {
			worst = d
		}
		if d > 2 {
			t.Fatalf("log(%x) = %x, math.Log = %x (%d ulp)", x, got, want, d)
		}
	}
	t.Logf("worst disagreement with math.Log over 1e6 samples: %d ulp", worst)
}

func TestLogNearOne(t *testing.T) {
	// x-1 is exact here, so math.Log1p is a reference good to an ulp of a
	// result that is itself below 0.1.
	const n = 400_000
	for i := 0; i <= n; i++ {
		x := 0.9 + 0.2*float64(i)/n
		got, want := log(x), math.Log1p(x-1)
		if math.Abs(got-want) > 2e-16 || ulpDiff(got, want) > 2 {
			t.Fatalf("log(%x) = %x, log1p = %x", x, got, want)
		}
	}
	for _, x := range []float64{1, math.Nextafter(1, 0), math.Nextafter(1, 2)} {
		if got, want := log(x), math.Log1p(x-1); got != want {
			t.Errorf("log(%x) = %x, want %x", x, got, want)
		}
	}
}

func TestLogTableBoundaries(t *testing.T) {
	// Every interval boundary of the reduced range and its two
	// neighbours, in the binade of 1 and in far ones.
	for i := 0; i <= 128; i++ {
		for _, shift := range []int{0, -1, 1, -1000, 1000} {
			for d := -1; d <= 1; d++ {
				bits := uint64(int64(logOff+uint64(i)<<45) + int64(d) + int64(shift)<<52)
				x := math.Float64frombits(bits)
				if got, want := log(x), math.Log(x); ulpDiff(got, want) > 1 {
					t.Errorf("interval %d shift %d %+d: log(%x) = %x, math.Log = %x", i, shift, d, x, got, want)
				}
			}
		}
	}
}

func TestLogSpecialValues(t *testing.T) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), -1, -1e-300, -math.MaxFloat64, math.Inf(-1), math.Inf(1), math.NaN(),
		math.SmallestNonzeroFloat64, 3 * math.SmallestNonzeroFloat64, 1e-310,
		math.Float64frombits(1<<52 - 1), // largest subnormal
		minNormal, math.MaxFloat64,
	} {
		got, want := log(x), math.Log(x)
		if math.IsNaN(want) {
			if !math.IsNaN(got) {
				t.Errorf("log(%g) = %g, want NaN", x, got)
			}
		} else if x < minNormal && got != want || ulpDiff(got, want) > 1 {
			t.Errorf("log(%g) = %x, want %x", x, got, want)
		}
	}
}

const bigPrec = 200

func bigF(x float64) *big.Float { return new(big.Float).SetPrec(bigPrec).SetFloat64(x) }

// bigLn is the natural logarithm of x, 0.4 < x < 2.5, by the atanh series.
func bigLn(x float64) *big.Float {
	t := new(big.Float).Quo(bigF(0).Sub(bigF(x), bigF(1)), bigF(0).Add(bigF(x), bigF(1)))
	t2 := bigF(0).Mul(t, t)
	sum, pow := bigF(0), bigF(0).Set(t)
	for k := 0; pow.Sign() != 0 && pow.MantExp(nil) > -bigPrec-8; k++ {
		sum.Add(sum, bigF(0).Quo(pow, bigF(float64(2*k+1))))
		pow.Mul(pow, t2)
	}
	return sum.Mul(sum, bigF(2))
}

func TestLogTable(t *testing.T) {
	for i, e := range logTab {
		lo := math.Float64frombits(logOff + uint64(i)<<45)
		hi := math.Float64frombits(logOff + uint64(i+1)<<45)
		if lo < 1 && 1 < hi {
			if e.invc != 1 || e.logc != 0 {
				t.Errorf("entry %d, the interval around 1: %+v, want {1, 0}", i, e)
			}
			continue
		}
		if mid := (lo + hi) / 2; math.Abs(e.invc*mid-1) > 0x1p-26 {
			t.Errorf("entry %d: invc %x is not the reciprocal of the midpoint %g", i, e.invc, mid)
		}
		if rl, rh := math.FMA(lo, e.invc, -1), math.FMA(hi, e.invc, -1); rl < -0x1p-8 || rh > 0x1p-8 {
			t.Errorf("entry %d: reduced argument spans [%g, %g], outside 2^-8", i, rl, rh)
		}
		if g := math.Ldexp(e.logc, 43); g != math.Trunc(g) {
			t.Errorf("entry %d: logc %x is not a multiple of 2^-43", i, e.logc)
		}
		// logc against -ln(invc) in 200-bit arithmetic.
		d := bigLn(e.invc)
		d.Add(d, bigF(e.logc))
		if err, _ := d.Float64(); math.Abs(err) > 0x1p-61*math.Abs(e.logc) {
			t.Errorf("entry %d: logc is off -ln(invc) by %g, %g of its value", i, err, err/e.logc)
		}
	}
	ln2 := bigLn(2)
	ln2.Sub(ln2, bigF(ln2Hi)).Sub(ln2, bigF(ln2Lo))
	if err, _ := ln2.Float64(); math.Abs(err) > 0x1p-98 || math.Ldexp(ln2Hi, 43) != math.Trunc(math.Ldexp(ln2Hi, 43)) {
		t.Errorf("ln2Hi + ln2Lo is off ln 2 by %g, or ln2Hi off the 2^-43 grid", err)
	}
}

// TestLogUlp measures the error against the exact logarithm, the bound the
// package documentation states.
func TestLogUlp(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ln2 := bigLn(2)
	var worst float64
	for i := 0; i < 20_000; i++ {
		// Half the samples anywhere, half within a few intervals of 1,
		// where the result is small and the rounding of r shows most.
		x := math.Float64frombits(uint64(1+rng.Intn(2046))<<52 | rng.Uint64()>>12)
		if i%2 == 1 {
			x = 1 + (rng.Float64()-0.5)*0x1p-5
		}
		frac, exp := math.Frexp(x) // x = frac * 2^exp, frac in [0.5, 1)
		want := bigLn(frac)
		want.Add(want, bigF(0).Mul(ln2, bigF(float64(exp))))
		got := log(x)
		w, _ := want.Float64()
		if w == 0 {
			continue
		}
		diff, _ := bigF(0).Sub(bigF(got), want).Float64()
		ulp := math.Abs(math.Nextafter(w, math.Inf(1)) - w)
		if e := math.Abs(diff) / ulp; e > worst {
			worst = e
		}
	}
	t.Logf("worst error against the exact logarithm: %.3f ulp", worst)
	if worst >= 1 {
		t.Errorf("worst error %.3f ulp, want below 1", worst)
	}
}

var logSink float64

func BenchmarkLog(b *testing.B) {
	xs := make([]float64, 1024)
	rng := rand.New(rand.NewSource(3))
	for i := range xs {
		xs[i] = math.Exp(rng.Float64()*40 - 20)
	}
	b.Run("table", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			s += log(xs[i&1023])
		}
		logSink = s
	})
	b.Run("math.Log", func(b *testing.B) {
		var s float64
		for i := 0; i < b.N; i++ {
			s += math.Log(xs[i&1023])
		}
		logSink = s
	})
}
