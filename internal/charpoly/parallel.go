package charpoly

import (
	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/sched"
)

// CharPolyParallel is CharPoly with the Faddeev–LeVerrier matrix
// products row-parallelized on the pool. The recurrence itself is
// sequential in k (each step needs the previous trace), but each step's
// n×n product is n independent row computations — the same
// dynamic-task-pool pattern as the solver's precomputation stage.
// Results are identical to CharPoly.
func CharPolyParallel(a *Matrix, pool *sched.Pool) *poly.Poly {
	return CharPolyParallelProfile(a, pool, mp.Schoolbook)
}

// CharPolyParallelProfile is CharPolyParallel under the given arithmetic
// profile: the entry products of each row task dispatch to the profile's
// multiplication kernel. The profile rides in each task's closure — no
// package state — so concurrent calls with different profiles are safe.
func CharPolyParallelProfile(a *Matrix, pool *sched.Pool, pr mp.Profile) *poly.Poly {
	if pool == nil {
		return CharPolyProfile(a, pr)
	}
	n := a.n
	c := make([]*mp.Int, n+1)
	c[n] = mp.NewInt(1)
	var m *Matrix
	for k := 1; k <= n; k++ {
		if k == 1 {
			m = a
		} else {
			m.addScaledIdentity(c[n-k+1])
			m = mulParallel(a, m, pool, pr)
		}
		tr := m.trace()
		ck := new(mp.Int).Neg(tr)
		c[n-k] = ck.DivExact(ck, mp.NewInt(int64(k)))
		if k == 1 {
			m = cloneMatrix(a)
		}
	}
	return poly.New(c...)
}

// mulParallel computes x·y with one task per result row.
func mulParallel(x, y *Matrix, pool *sched.Pool, pr mp.Profile) *Matrix {
	n := x.n
	z := NewMatrix(n)
	pool.ParallelForTagged("charpoly", n, func(i int) {
		var t mp.Int
		for j := 0; j < n; j++ {
			acc := z.a[i*n+j]
			for k := 0; k < n; k++ {
				xe, ye := x.a[i*n+k], y.a[k*n+j]
				if xe.IsZero() || ye.IsZero() {
					continue
				}
				t.MulProfile(pr, xe, ye)
				acc.Add(acc, &t)
			}
		}
	})
	return z
}
