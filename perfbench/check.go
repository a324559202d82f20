package main

import (
	"fmt"
	"math/big"
	"runtime"
	"sync"

	"realroots"
	"realroots/internal/dyadic"
	"realroots/internal/metrics"
	"realroots/internal/poly"
	"realroots/internal/sturm"
)

// A refRoot is one distinct root of an expected answer.
type refRoot struct {
	val  *big.Rat
	mult int
}

// sturmReference computes p's answer at each of mus with the
// independent Sturm isolator at the largest µ. Multiplicities come
// from the gcd chain g₀ = p, gₖ₊₁ = gcd(gₖ, gₖ′): a root of p has
// multiplicity m exactly when it is a root of g₀ … g_{m-1}. Coarser
// precisions are rounded up from the finest one, which is exact: the
// finest approximation lies on a grid that refines the coarse one, less
// than one fine step above the root, so rounding either of them up to
// the coarse grid gives the same point.
func sturmReference(p *poly.Poly, mus []uint) (map[uint][]refRoot, error) {
	top := mus[0]
	for _, mu := range mus {
		if mu > top {
			top = mu
		}
	}
	roots, err := sturm.FindRoots(p, top, metrics.Ctx{})
	if err != nil {
		return nil, err
	}
	ref := make([]refRoot, len(roots))
	for i, r := range roots {
		ref[i] = refRoot{val: r.Rat(), mult: 1}
	}
	g := p
	for {
		g = poly.GCD(g, g.Derivative())
		if g.Degree() < 1 {
			break
		}
		rs, err := sturm.FindRoots(g, top, metrics.Ctx{})
		if err != nil {
			return nil, err
		}
		for _, r := range rs {
			if err := bumpMult(ref, r); err != nil {
				return nil, err
			}
		}
	}
	total := 0
	for _, r := range ref {
		total += r.mult
	}
	if total != p.Degree() {
		return nil, fmt.Errorf("reference: multiplicities sum to %d for degree %d", total, p.Degree())
	}
	out := map[uint][]refRoot{}
	for _, mu := range mus {
		out[mu] = roundRef(ref, mu)
	}
	return out, nil
}

func bumpMult(ref []refRoot, r dyadic.Dyadic) error {
	v := r.Rat()
	for i := range ref {
		if ref[i].val.Cmp(v) == 0 {
			ref[i].mult++
			return nil
		}
	}
	return fmt.Errorf("reference: repeated root %s is not a root of p", v.RatString())
}

// roundRef rounds each value up to the 2^-µ grid.
func roundRef(ref []refRoot, mu uint) []refRoot {
	out := make([]refRoot, len(ref))
	for i, r := range ref {
		num := new(big.Int).Lsh(r.val.Num(), mu)
		q, m := new(big.Int).DivMod(num, r.val.Denom(), new(big.Int))
		if m.Sign() != 0 {
			q.Add(q, big.NewInt(1))
		}
		out[i] = refRoot{val: new(big.Rat).SetFrac(q, new(big.Int).Lsh(big.NewInt(1), mu)), mult: r.mult}
	}
	return out
}

func fromResult(res *realroots.Result) []refRoot {
	out := make([]refRoot, len(res.Roots))
	for i, r := range res.Roots {
		out[i] = refRoot{val: r.Value, mult: r.Multiplicity}
	}
	return out
}

// compareRoots reports the first difference between an answer and the
// expected one: the count, a value, or a multiplicity.
func compareRoots(got, want []refRoot) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d distinct roots, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].val.Cmp(want[i].val) != 0 {
			return fmt.Errorf("root %d = %s, want %s", i, got[i].val.RatString(), want[i].val.RatString())
		}
		if got[i].mult != want[i].mult {
			return fmt.Errorf("root %d multiplicity %d, want %d", i, got[i].mult, want[i].mult)
		}
	}
	return nil
}

// parallelEach runs f(i) for i in [0, n) on up to GOMAXPROCS goroutines
// and returns the first error.
func parallelEach(n int, f func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		next  int
		first error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				stop := first != nil
				mu.Unlock()
				if i >= n || stop {
					return
				}
				if err := f(i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return first
}
