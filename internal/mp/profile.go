package mp

import "fmt"

// A Profile selects the arithmetic algorithms used for multiplication
// and division. It is an explicit per-operation value — carried by the
// callers' operation contexts, never package state — so concurrent
// computations may use different profiles without synchronization.
//
// The zero value is Schoolbook: quadratic multiplication and division,
// matching the UNIX "mp" package used by the paper's implementation and
// the cost model its analysis (§4) assumes. Fast substitutes the
// subquadratic kernels (block-decomposed Karatsuba multiplication and
// Burnikel–Ziegler divide-and-conquer division); results are identical,
// only the running time and the actual (as opposed to modeled) bit cost
// change.
type Profile uint8

const (
	// Schoolbook is the paper's arithmetic: O(n²) multiplication and
	// division. The default.
	Schoolbook Profile = iota
	// Fast uses Karatsuba multiplication and Burnikel–Ziegler division
	// above the small-operand thresholds.
	Fast

	numProfiles // sentinel for validation
)

// String returns the profile name.
func (p Profile) String() string {
	switch p {
	case Schoolbook:
		return "schoolbook"
	case Fast:
		return "fast"
	}
	return fmt.Sprintf("profile(%d)", uint8(p))
}

// Valid reports whether p is a defined profile.
func (p Profile) Valid() bool { return p < numProfiles }

// ParseProfile maps a profile name ("schoolbook"/"paper" or "fast") to
// its value.
func ParseProfile(s string) (Profile, error) {
	switch s {
	case "schoolbook", "paper":
		return Schoolbook, nil
	case "fast":
		return Fast, nil
	}
	return 0, fmt.Errorf("mp: unknown profile %q (want schoolbook, paper, or fast)", s)
}

// A tierTable holds the shorter-operand crossover threshold, in 64-bit
// packed limbs, at which Karatsuba takes over from the row loop (it
// must be at least 2). Tables are immutable configuration threaded
// through the kernels as a parameter — tier selection is a pure
// function of the call, never package state.
type tierTable struct {
	kar int // Karatsuba at len ≥ kar, schoolbook row loop below

	// count, when non-nil, accumulates the 64-bit limb products the
	// base-case row loops perform. Tests pin MulCost against it; nil —
	// and unused — on every non-test path.
	count *int64
}

// fastTiers is the Fast profile's tier table (DESIGN.md §12).
var fastTiers = tierTable{kar: kar64Threshold}

// A Tier names the multiplication kernel a product of a given shape
// dispatches to, for per-tier metrics attribution.
type Tier uint8

const (
	// TierSchoolbook is the 32-bit schoolbook row loop (the paper's
	// kernel, and the Fast profile's base case below fastPackThreshold).
	TierSchoolbook Tier = iota
	// TierPacked is the 64-bit packed schoolbook row loop.
	TierPacked
	// TierKaratsuba is block-decomposed Karatsuba on packed limbs.
	TierKaratsuba

	NumTiers int = iota // sentinel: number of defined tiers
)

// String returns the tier name used in metrics and JSON output.
func (t Tier) String() string {
	switch t {
	case TierSchoolbook:
		return "schoolbook"
	case TierPacked:
		return "packed"
	case TierKaratsuba:
		return "karatsuba"
	}
	return fmt.Sprintf("tier(%d)", uint8(t))
}

// MulTier reports which multiplication tier an xbits-by-ybits product
// dispatches to under the profile. Block decomposition of unbalanced
// shapes reduces to balanced products of the shorter operand's size,
// so the shorter operand decides the tier.
func (p Profile) MulTier(xbits, ybits int) Tier {
	if p != Fast {
		return TierSchoolbook
	}
	short := min(xbits, ybits)
	lb := (short + limbBits - 1) / limbBits // 32-bit limbs
	if lb < fastPackThreshold {
		return TierSchoolbook
	}
	if ly := (lb + 1) / 2; ly < fastTiers.kar { // packed limbs
		return TierPacked
	}
	return TierKaratsuba
}

// mul returns x*y under the profile.
func (p Profile) mul(x, y nat) nat {
	if p == Fast {
		return natMulFast(x, y)
	}
	return natMulBasic(x, y)
}

// div returns the quotient and remainder of u/v under the profile.
func (p Profile) div(u, v nat) (q, r nat) {
	if p == Fast {
		return natDivFast(u, v)
	}
	return natDiv(u, v)
}

// MulCost estimates the cost of multiplying xbits-by-ybits operands
// under the profile, in the paper's bit-operation unit (schoolbook cost
// = xbits·ybits). For Fast it mirrors mul64t's dispatch — block
// decomposition for unbalanced shapes, then the Karatsuba recursion —
// collapsed to a closed O(log n) walk. It is an estimate of work
// actually done, used by the metrics layer to report model vs actual
// cost side by side; the solver's bit-operation budget always charges
// the model cost, so this never affects results.
//
// Two former bugs are pinned by TestMulCostPinnedToKernel: the old
// closed form halved the recursion size with integer truncation
// (t /= 2, drifting from the kernel's ceil splits and compounding
// per level), and counted every block of an unbalanced product as
// full-width, so an (lb+1)-limb × lb-limb product was charged two full
// blocks — nearly 2× the work actually done.
func (p Profile) MulCost(xbits, ybits int) int64 {
	model := int64(xbits) * int64(ybits)
	if p != Fast || xbits == 0 || ybits == 0 {
		return model
	}
	la := (xbits + limbBits - 1) / limbBits
	lb := (ybits + limbBits - 1) / limbBits
	if la < lb {
		la, lb = lb, la
	}
	if lb < karatsubaThreshold {
		return model
	}
	// Count 64-bit limb products, as the packed kernel does, then
	// convert: one 64×64 product covers (2·limbBits)² bit units.
	c := mulCost64((la+1)/2, (lb+1)/2, fastTiers) * 4 * limbBits * limbBits
	if fast := int64(c); fast < model {
		return fast
	}
	return model
}

// mulCost64 mirrors mul64t's dispatch and returns the estimated number
// of 64-bit limb products it performs. Unbalanced shapes decompose into
// full blocks plus one partial block charged at its true size.
func mulCost64(lx, ly int, tab tierTable) float64 {
	if lx < ly {
		lx, ly = ly, lx
	}
	if ly <= 0 {
		return 0
	}
	if ly < tab.kar {
		return float64(lx) * float64(ly)
	}
	if lx > 2*ly {
		c := float64(lx/ly) * balMulCost64(ly, tab)
		if r := lx % ly; r > 0 {
			c += mulCost64(ly, r, tab)
		}
		return c
	}
	return balMulCost64((lx+ly+1)/2, tab)
}

// balMulCost64 collapses the balanced Karatsuba recursion: a ×3
// branching factor per level on ceil(n/2) halves (matching the
// kernel's m = (n+1)/2 split, not a truncating n/2) down to the
// schoolbook base case.
func balMulCost64(n int, tab tierTable) float64 {
	mult := 1.0
	for n >= tab.kar {
		mult *= 3
		n = (n + 1) / 2
	}
	return mult * float64(n) * float64(n)
}

// DivCost estimates the cost of dividing an xbits dividend by a ybits
// divisor under the profile (schoolbook model cost = xbits·ybits). The
// Fast estimate charges the Burnikel–Ziegler recursion as roughly two
// fast multiplications of quotient-by-divisor shape.
//
// Below the Burnikel–Ziegler thresholds the Fast profile runs Knuth
// long division, which touches the divisor once per quotient limb:
// (qbits + limbBits)·ybits, not xbits·ybits. In particular a dividend
// no longer than the divisor costs a compare (and possibly one
// subtraction), linear in the operands — the old estimate returned the
// raw quadratic model for every xbits ≤ ybits shape, inflating the
// reported "actual" cost of the remainder sequence's equal-length
// divisions (pinned by TestDivCostEqualLength).
func (p Profile) DivCost(xbits, ybits int) int64 {
	model := int64(xbits) * int64(ybits)
	if p != Fast || xbits == 0 || ybits == 0 {
		return model
	}
	if xbits < ybits {
		return int64(xbits) + int64(ybits)
	}
	qbits := xbits - ybits
	school := (int64(qbits) + limbBits) * int64(ybits)
	if school > model {
		school = model
	}
	lv := (ybits + limbBits - 1) / limbBits
	lq := (qbits + limbBits - 1) / limbBits
	if lv < fastDivThreshold || lq < fastDivThreshold {
		return school
	}
	fast := 2 * p.MulCost(qbits, ybits)
	if fast < school {
		return fast
	}
	return school
}
