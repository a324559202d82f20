package mp

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// refMul is the math/big reference product for packed operands.
func refMul(x, y []uint64) *big.Int {
	return new(big.Int).Mul(big64(x), big64(y))
}

func big64(x []uint64) *big.Int {
	var v Int
	v.abs = nat64To32(x)
	return v.ToBig()
}

func rand64(r *rand.Rand, limbs int) []uint64 {
	z := make([]uint64, limbs)
	for i := range z {
		z[i] = r.Uint64()
	}
	return norm64(z)
}

func checkMul64(t *testing.T, name string, got []uint64, x, y []uint64) {
	t.Helper()
	if want := refMul(x, y); big64(got).Cmp(want) != 0 {
		t.Fatalf("%s: %d×%d limbs: product mismatch vs math/big", name, len(x), len(y))
	}
}

// TestMulCrossoverBoundaries drives mul64 across the Karatsuba
// threshold and the block-decomposition edges: a product with
// lx = 2·ly still takes the balanced Karatsuba split, one with
// lx = 2·ly+1 is cut into blocks of the shorter operand's size. Every
// shape must agree with math/big.
func TestMulCrossoverBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var shapes [][2]int
	for _, n := range []int{kar64Threshold - 1, kar64Threshold, kar64Threshold + 1} {
		shapes = append(shapes, [2]int{n, n})
	}
	for _, ly := range []int{kar64Threshold, 3 * kar64Threshold, 3*kar64Threshold + 1} {
		shapes = append(shapes, [2]int{2 * ly, ly}, [2]int{2*ly + 1, ly})
	}
	for _, s := range shapes {
		x, y := rand64(r, s[0]), rand64(r, s[1])
		checkMul64(t, fmt.Sprintf("mul64/%dx%d", s[0], s[1]), mul64(x, y), x, y)
	}
}

// TestMulCostPinnedToKernel pins Profile.MulCost against the kernels'
// instrumented limb-product count across shapes from the Karatsuba
// threshold to deep recursions.
// The old closed form drifted from the kernel on two counts (truncating
// halving, full-width partial blocks); the rewrite must stay within a
// modeling tolerance of the real work.
func TestMulCostPinnedToKernel(t *testing.T) {
	if testing.Short() {
		t.Skip("large operands")
	}
	r := rand.New(rand.NewSource(15))
	shapes := [][2]int{
		{60, 60},      // packed karatsuba, just above 32-limb threshold
		{101, 67},     // odd, unbalanced karatsuba
		{130, 130},    // balanced karatsuba
		{385, 193},    // lopsided, just under the 2:1 block edge
		{700, 90},     // block decomposition with partial tail block
		{2048, 2048},  // deep karatsuba recursion
		{2100, 2049},  // deep recursion, odd sizes
		{8192, 8192},  // deepest balanced walk
		{16384, 8192}, // 2:1 shape: degenerate split, no blocks
	}
	for _, s := range shapes {
		lx, ly := s[0], s[1]
		x, y := rand64(r, lx), rand64(r, ly)
		var count int64
		tab := fastTiers
		tab.count = &count
		got := mul64t(x, y, tab)
		checkMul64(t, "mul64t/counted", got, x, y) // counting table must not change results
		counted := float64(count) * 4 * limbBits * limbBits
		cost := float64(Fast.MulCost(lx*2*limbBits, ly*2*limbBits))
		if ratio := cost / counted; ratio < 0.6 || ratio > 1.6 {
			t.Errorf("MulCost(%d,%d limbs) = %.3g, instrumented count %.3g (ratio %.2f)",
				lx, ly, cost, counted, ratio)
		}
	}
}

// TestMulCostPartialBlockRegression is the regression pin for the
// block-decomposition bug: an (lb+1)-limb × lb-limb product was charged
// ceil(la/lb) = 2 full blocks — nearly double the instrumented work.
func TestMulCostPartialBlockRegression(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	lb := 3 * kar64Threshold // 60 packed limbs, karatsuba range
	la := 2*lb + 1           // one full pair of blocks plus a 1-limb tail
	x, y := rand64(r, la), rand64(r, lb)
	var count int64
	tab := fastTiers
	tab.count = &count
	checkMul64(t, "partial-block", mul64t(x, y, tab), x, y)
	counted := float64(count) * 4 * limbBits * limbBits
	cost := float64(Fast.MulCost(la*2*limbBits, lb*2*limbBits))
	// The old formula returned blocks=ceil(la/lb)=3 full blocks here,
	// ~1.5× the real work; the fix charges the tail at its true size.
	if ratio := cost / counted; ratio > 1.35 {
		t.Errorf("MulCost still overcharges partial blocks: cost %.3g vs counted %.3g (ratio %.2f)",
			cost, counted, ratio)
	}
}

// TestMulCostTruncationRegression pins the halving-loop bug: on
// odd-sized balanced operands the old t /= 2 walk lost the ceil(n/2)
// split sizes and drifted below the instrumented work level by level.
func TestMulCostTruncationRegression(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	// 81 packed limbs: four ceil-halvings 81→41→21→11 hit the base case
	// at 11; the truncating walk modeled 81→40→20→10 instead.
	lx := 81
	x, y := rand64(r, lx), rand64(r, lx)
	var count int64
	tab := fastTiers
	tab.count = &count
	checkMul64(t, "truncation", mul64t(x, y, tab), x, y)
	counted := float64(count) * 4 * limbBits * limbBits
	cost := float64(Fast.MulCost(lx*2*limbBits, lx*2*limbBits))
	if ratio := cost / counted; ratio < 0.75 || ratio > 1.35 {
		t.Errorf("MulCost drifts from instrumented count on odd sizes: cost %.3g vs counted %.3g (ratio %.2f)",
			cost, counted, ratio)
	}
}

// TestDivCostEqualLength is the regression pin for the DivCost bug:
// under Fast, equal-length divisions (every remainder-sequence
// normalization step) must be charged like the compare-and-single-step
// division they are, not the full quadratic schoolbook model.
func TestDivCostEqualLength(t *testing.T) {
	const bits = 4096
	model := int64(bits) * int64(bits)
	if got := Schoolbook.DivCost(bits, bits); got != model {
		t.Fatalf("Schoolbook.DivCost(%d,%d) = %d, want model %d", bits, bits, got, model)
	}
	got := Fast.DivCost(bits, bits)
	if got >= model/10 {
		t.Errorf("Fast.DivCost(%d,%d) = %d: still ~quadratic (model %d); an equal-length division is one compare and at most one subtraction", bits, bits, got, model)
	}
	if short := Fast.DivCost(bits-1, bits); short >= model/10 {
		t.Errorf("Fast.DivCost(%d,%d) = %d: shorter-dividend division must be linear", bits-1, bits, short)
	}
	// Monotonicity across the xbits = ybits boundary: a slightly longer
	// dividend may not be cheaper than a slightly shorter one.
	if a, b := Fast.DivCost(bits+64, bits), Fast.DivCost(bits-64, bits); a < b {
		t.Errorf("DivCost not monotonic across equal length: DivCost(%d)=%d < DivCost(%d)=%d",
			bits+64, a, bits-64, b)
	}
}

// TestDivCostBoundary walks DivCost across the fastDivThreshold
// boundary: the estimate must stay positive, bounded by the model, and
// free of cliffs bigger than the regime change itself.
func TestDivCostBoundary(t *testing.T) {
	thr := fastDivThreshold * limbBits // threshold in bits
	for _, ybits := range []int{thr - limbBits, thr, thr + limbBits, 4 * thr} {
		prev := int64(0)
		for _, qbits := range []int{1, thr - limbBits, thr, thr + limbBits, 3 * thr} {
			xbits := ybits + qbits
			got := Fast.DivCost(xbits, ybits)
			model := int64(xbits) * int64(ybits)
			if got <= 0 || got > model {
				t.Fatalf("Fast.DivCost(%d,%d) = %d out of range (0, model=%d]", xbits, ybits, got, model)
			}
			if got < prev/4 {
				t.Errorf("Fast.DivCost(%d,%d) = %d: collapsed vs smaller quotient cost %d", xbits, ybits, got, prev)
			}
			prev = got
		}
	}
}
