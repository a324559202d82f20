package realroots

import (
	"context"
	"errors"
	"math/big"
	"testing"
	"time"
)

// wilkinsonCoeffs returns the coefficients of Π (x-k), k = 1..n.
func wilkinsonCoeffs(n int64) []*big.Int {
	c := []*big.Int{big.NewInt(1)}
	for k := int64(1); k <= n; k++ {
		next := make([]*big.Int, len(c)+1)
		for i := range next {
			next[i] = new(big.Int)
		}
		for i, ci := range c {
			next[i+1].Add(next[i+1], ci)
			next[i].Sub(next[i], new(big.Int).Mul(big.NewInt(k), ci))
		}
		c = next
	}
	return c
}

// repeatedCoeffs is (x-1)²(x-2), which the public API solves through
// the Yun factors rather than one squarefree pipeline run.
var repeatedCoeffs = []*big.Int{big.NewInt(-2), big.NewInt(5), big.NewInt(-4), big.NewInt(1)}

func TestFindRootsContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, in := range []struct {
		name   string
		coeffs []*big.Int
	}{
		{"wilkinson10", wilkinsonCoeffs(10)},
		{"repeated", repeatedCoeffs},
	} {
		for _, workers := range []int{0, 4} {
			res, err := FindRootsContext(ctx, in.coeffs, &Options{Workers: workers})
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("%s workers=%d: err = %v, want ErrCanceled", in.name, workers, err)
			}
			if res == nil {
				t.Fatalf("%s workers=%d: no partial result", in.name, workers)
			}
			if len(res.Roots) != 0 {
				t.Fatalf("%s workers=%d: canceled run returned roots", in.name, workers)
			}
			if want := len(in.coeffs) - 1; res.Degree != want {
				t.Fatalf("%s workers=%d: partial Degree = %d, want %d", in.name, workers, res.Degree, want)
			}
		}
	}
	// The same input, uncanceled, reports the Yun factors' summed stage
	// times.
	for _, workers := range []int{0, 4} {
		res, err := FindRootsContext(context.Background(), repeatedCoeffs, &Options{Workers: workers})
		if err != nil {
			t.Fatalf("repeated workers=%d: %v", workers, err)
		}
		if res.Distinct != 2 || res.TreeSolve <= 0 {
			t.Fatalf("repeated workers=%d: Distinct=%d TreeSolve=%v, want 2 roots and TreeSolve > 0", workers, res.Distinct, res.TreeSolve)
		}
	}
}

func TestOptionsTimeout(t *testing.T) {
	res, err := FindRoots(wilkinsonCoeffs(10), &Options{Timeout: time.Nanosecond})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if res == nil || len(res.Roots) != 0 {
		t.Fatalf("partial result = %+v", res)
	}
}

func TestOptionsMaxBitOps(t *testing.T) {
	res, err := FindRoots(wilkinsonCoeffs(12), &Options{MaxBitOps: 1500, Workers: 2})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	if res == nil || len(res.Roots) != 0 {
		t.Fatalf("partial result = %+v", res)
	}
	// A generous budget must not interfere.
	res, err = FindRoots(wilkinsonCoeffs(8), &Options{MaxBitOps: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Roots) != 8 {
		t.Fatalf("%d roots", len(res.Roots))
	}
}

func TestInvalidOptionsTyped(t *testing.T) {
	_, err := FindRoots(wilkinsonCoeffs(4), &Options{Workers: -1})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("err = %v, want ErrInvalidOptions", err)
	}
	_, err = FindRealRoots(wilkinsonCoeffs(4), &Options{MaxBitOps: -1})
	if !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("FindRealRoots err = %v, want ErrInvalidOptions", err)
	}
}

func TestFindRealRootsContextResilience(t *testing.T) {
	// x² - 2: not all-real-restricted, exercises the Sturm baseline.
	coeffs := []*big.Int{big.NewInt(-2), big.NewInt(0), big.NewInt(1)}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := FindRealRootsContext(ctx, coeffs, nil)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if res == nil || len(res.Roots) != 0 {
		t.Fatalf("partial result = %+v", res)
	}
	if _, err := FindRealRoots(wilkinsonCoeffs(12), &Options{MaxBitOps: 200}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("budget err = %v, want ErrBudgetExceeded", err)
	}
	// And the healthy path still works with a context.
	res, err = FindRealRootsContext(context.Background(), coeffs, &Options{Precision: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Roots) != 2 {
		t.Fatalf("%d roots", len(res.Roots))
	}
}

func TestEigenvaluesContextCanceled(t *testing.T) {
	m := [][]int64{{2, 1, 0}, {1, 2, 1}, {0, 1, 2}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := EigenvaluesContext(ctx, m, &Options{Workers: 2}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	res, err := EigenvaluesContext(context.Background(), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Roots) != 3 {
		t.Fatalf("%d eigenvalues", len(res.Roots))
	}
}
