package mp

import "math/bits"

// 64-bit packed kernels for the Fast profile. The paper's substrate
// (and the Schoolbook profile) works on 32-bit limbs with 64-bit
// accumulators — faithful to the era's "mp" — but a modern machine
// multiplies 64-bit words at the same latency, so packing limb pairs
// before a large product quarters the hardware multiply count before
// Karatsuba even starts. The packed value is little-endian []uint64;
// packing and unpacking are O(n) and only worth it above
// fastPackThreshold (32-bit limbs).

// fastPackThreshold is the shorter-operand length (in 32-bit limbs)
// above which natMulFast packs to 64-bit limbs.
const fastPackThreshold = 8

// kar64Threshold is the 64-bit limb count below which mul64 uses the
// schoolbook row loop. 20 limbs = 1280 bits, matching
// karatsubaThreshold's cutover point.
const kar64Threshold = 20

// natTo64 packs 32-bit limbs into 64-bit limbs.
func natTo64(x nat) []uint64 {
	z := make([]uint64, (len(x)+1)/2)
	for i := range z {
		lo := uint64(x[2*i])
		if 2*i+1 < len(x) {
			lo |= uint64(x[2*i+1]) << 32
		}
		z[i] = lo
	}
	return z
}

// nat64To32 unpacks 64-bit limbs back to canonical 32-bit form.
func nat64To32(x []uint64) nat {
	z := make(nat, 2*len(x))
	for i, v := range x {
		z[2*i] = uint32(v)
		z[2*i+1] = uint32(v >> 32)
	}
	return z.norm()
}

// norm64 strips leading zero limbs.
func norm64(x []uint64) []uint64 {
	n := len(x)
	for n > 0 && x[n-1] == 0 {
		n--
	}
	return x[:n]
}

// add64 returns x + y.
func add64(x, y []uint64) []uint64 {
	if len(x) < len(y) {
		x, y = y, x
	}
	z := make([]uint64, len(x)+1)
	var carry uint64
	for i := range x {
		var yi uint64
		if i < len(y) {
			yi = y[i]
		}
		z[i], carry = bits.Add64(x[i], yi, carry)
	}
	z[len(x)] = carry
	return norm64(z)
}

// accumAt64 adds y·2^(64·shift) into z in place; z must absorb the
// carry (an invariant of the callers' product buffers).
func accumAt64(z, y []uint64, shift int) {
	var carry uint64
	for i := 0; i < len(y); i++ {
		z[shift+i], carry = bits.Add64(z[shift+i], y[i], carry)
	}
	for i := shift + len(y); carry != 0; i++ {
		z[i], carry = bits.Add64(z[i], 0, carry)
	}
}

// deductAt64 subtracts y·2^(64·shift) from z in place; the running
// value of z must stay non-negative.
func deductAt64(z, y []uint64, shift int) {
	var borrow uint64
	for i := 0; i < len(y); i++ {
		z[shift+i], borrow = bits.Sub64(z[shift+i], y[i], borrow)
	}
	for i := shift + len(y); borrow != 0; i++ {
		z[i], borrow = bits.Sub64(z[i], 0, borrow)
	}
}

// mul64Basic is the schoolbook row loop over 64-bit limbs.
func mul64Basic(x, y []uint64) []uint64 {
	z := make([]uint64, len(x)+len(y))
	for i, xi := range x {
		if xi == 0 {
			continue
		}
		var carry uint64
		for j, yj := range y {
			hi, lo := bits.Mul64(xi, yj)
			var c uint64
			lo, c = bits.Add64(lo, z[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			z[i+j] = lo
			carry = hi
		}
		z[i+len(y)] = carry
	}
	return norm64(z)
}

// mul64 multiplies packed operands under the Fast profile's measured
// tier table.
func mul64(x, y []uint64) []uint64 { return mul64t(x, y, fastTiers) }

// mul64t multiplies packed operands, dispatching on the tier table:
// block decomposition for unbalanced shapes (the same structure as
// natMulFast, one word size up), then — by the shorter operand's size —
// the schoolbook row loop or Karatsuba. Threading the table as a
// parameter keeps tier selection a pure function of the call (tests
// swap in a counting table; no package state), and recursive products
// re-tier on their own, smaller sizes.
func mul64t(x, y []uint64, tab tierTable) []uint64 {
	if len(x) < len(y) {
		x, y = y, x
	}
	if len(y) < tab.kar {
		if tab.count != nil {
			*tab.count += int64(len(x)) * int64(len(y))
		}
		return mul64Basic(x, y)
	}
	if len(x) > 2*len(y) {
		z := make([]uint64, len(x)+len(y))
		b := len(y)
		for i := 0; i < len(x); i += b {
			hi := i + b
			if hi > len(x) {
				hi = len(x)
			}
			blk := norm64(x[i:hi])
			if len(blk) == 0 {
				continue
			}
			accumAt64(z, mul64t(blk, y, tab), i)
		}
		return norm64(z)
	}
	z := make([]uint64, len(x)+len(y))
	m := (len(x) + 1) / 2
	x0 := norm64(x[:m])
	x1 := norm64(x[m:])
	var y0, y1 []uint64
	if m < len(y) {
		y0 = norm64(y[:m])
		y1 = norm64(y[m:])
	} else {
		y0 = y // degenerate split: y1 = 0
	}

	z0 := mul64t(x0, y0, tab)
	var z2 []uint64
	if len(x1) > 0 && len(y1) > 0 {
		z2 = mul64t(x1, y1, tab)
	}
	s := mul64t(add64(x0, x1), add64(y0, y1), tab) // z0 + z2 + x0·y1 + x1·y0

	// Same assembly as natMulFast: reduce s to the middle term in its
	// own buffer, then compose disjoint copies plus one accumulation.
	deductAt64(s, z0, 0)
	deductAt64(s, z2, 0)
	copy(z, z0)
	copy(z[2*m:], z2)
	accumAt64(z, norm64(s), m)
	return norm64(z)
}
