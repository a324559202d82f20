package metrics

import "realroots/internal/mp"

// Ctx bundles a counter sink with the phase it attributes work to and
// the arithmetic profile the run executes under. The arithmetic helpers
// below are the instrumented entry points used in the algorithm's hot
// paths; they record the operation before performing it with
// internal/mp, dispatching to the profile's algorithms. Carrying the
// profile here — as a per-operation value rather than package state —
// is what lets concurrent solves run under different profiles without
// any synchronization. A zero Ctx (nil Counters) performs schoolbook
// arithmetic without recording.
//
// Recording is profile-independent: both profiles log the same
// operation counts and the same model cost (the paper's §4 schoolbook
// measure), so paper-mode traces are unchanged by this machinery; only
// the actual-cost fields and the wall time differ between profiles.
type Ctx struct {
	C       *Counters
	Phase   Phase
	Profile mp.Profile
}

// In returns a copy of the context attributed to phase p.
func (c Ctx) In(p Phase) Ctx {
	c.Phase = p
	return c
}

// recordMul logs one multiplication with its model and actual cost,
// plus — under Fast, the only profile with more than one kernel — the
// tier it dispatches to.
func (c Ctx) recordMul(xbits, ybits int) {
	if c.C == nil {
		return
	}
	c.C.AddMulCost(c.Phase, xbits, ybits, c.Profile.MulCost(xbits, ybits))
	if c.Profile == mp.Fast {
		c.C.AddMulTier(c.Phase, c.Profile.MulTier(xbits, ybits))
	}
}

// recordDiv logs one division with its model and actual cost.
func (c Ctx) recordDiv(xbits, ybits int) {
	if c.C == nil {
		return
	}
	c.C.AddDivCost(c.Phase, xbits, ybits, c.Profile.DivCost(xbits, ybits))
}

// Mul returns a new Int holding x*y, recording the multiplication.
func (c Ctx) Mul(x, y *mp.Int) *mp.Int {
	c.recordMul(x.BitLen(), y.BitLen())
	return new(mp.Int).MulProfile(c.Profile, x, y)
}

// MulInto sets z = x*y, recording the multiplication.
func (c Ctx) MulInto(z, x, y *mp.Int) *mp.Int {
	c.recordMul(x.BitLen(), y.BitLen())
	return z.MulProfile(c.Profile, x, y)
}

// Sqr returns a new Int holding x², recording it as a multiplication.
func (c Ctx) Sqr(x *mp.Int) *mp.Int {
	b := x.BitLen()
	c.recordMul(b, b)
	return new(mp.Int).SqrProfile(c.Profile, x)
}

// QuoRem sets z = x quo y and r = x rem y (truncated division),
// recording the division, and returns (z, r).
func (c Ctx) QuoRem(z, x, y, r *mp.Int) (*mp.Int, *mp.Int) {
	c.recordDiv(x.BitLen(), y.BitLen())
	return z.QuoRemProfile(c.Profile, x, y, r)
}

// DivExact returns a new Int holding x/y (exact), recording the division.
func (c Ctx) DivExact(x, y *mp.Int) *mp.Int {
	c.recordDiv(x.BitLen(), y.BitLen())
	return new(mp.Int).DivExactProfile(c.Profile, x, y)
}

// DivExactInto sets z = x/y (exact), recording the division.
func (c Ctx) DivExactInto(z, x, y *mp.Int) *mp.Int {
	c.recordDiv(x.BitLen(), y.BitLen())
	return z.DivExactProfile(c.Profile, x, y)
}

// Add returns a new Int holding x+y, recording the addition.
func (c Ctx) Add(x, y *mp.Int) *mp.Int {
	c.C.AddAdd(c.Phase)
	return new(mp.Int).Add(x, y)
}

// Sub returns a new Int holding x-y, recording the subtraction.
func (c Ctx) Sub(x, y *mp.Int) *mp.Int {
	c.C.AddAdd(c.Phase)
	return new(mp.Int).Sub(x, y)
}
