package realroots

import (
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"math/big"
	"strings"
	"testing"
	"time"

	"realroots/internal/charpoly"
	"realroots/internal/core"
	"realroots/internal/metrics"
	"realroots/internal/poly"
	"realroots/internal/remseq"
	"realroots/internal/sched"
	"realroots/internal/workload"
)

// bigCoeffs returns p's coefficients as the public API takes them.
func bigCoeffs(t *testing.T, p *poly.Poly) []*big.Int {
	t.Helper()
	c := make([]*big.Int, p.Degree()+1)
	for i := range c {
		var ok bool
		if c[i], ok = new(big.Int).SetString(p.Coeff(i).String(), 10); !ok {
			t.Fatalf("coefficient %d: %s", i, p.Coeff(i))
		}
	}
	return c
}

// overshootCases runs fn on the charpoly of the seed-3 random symmetric
// 0-1 matrix at n ∈ {50, 70}, under both profiles, on 1 and 2 workers:
// inputs whose squarefree check alone used to take seconds.
func overshootCases(t *testing.T, fn func(name string, coeffs []*big.Int, opts Options)) {
	for _, n := range []int{50, 70} {
		coeffs := bigCoeffs(t, workload.CharPoly01(3, n))
		for _, prof := range []Profile{ProfilePaper, ProfileFast} {
			for _, workers := range []int{1, 2} {
				fn(fmt.Sprintf("n=%d/%s/P=%d", n, prof, workers), coeffs, Options{Profile: prof, Workers: workers})
			}
		}
	}
}

// TestOvershootTimeout: a 10 ms Timeout returns ErrDeadline within
// 60 ms. No unmetered, uncancellable squarefree check runs before the
// remainder sequence, whose every iteration polls the deadline.
func TestOvershootTimeout(t *testing.T) {
	overshootCases(t, func(name string, coeffs []*big.Int, opts Options) {
		opts.Timeout = 10 * time.Millisecond
		start := time.Now()
		res, err := FindRoots(coeffs, &opts)
		took := time.Since(start)
		if !errors.Is(err, ErrDeadline) || res == nil || len(res.Roots) != 0 {
			t.Fatalf("%s: err = %v, res = %+v, want ErrDeadline with a partial result", name, err, res)
		}
		if took > 60*time.Millisecond {
			t.Errorf("%s: returned after %v, want ≤ 60ms", name, took)
		}
	})
}

// TestOvershootMaxBitOps: MaxBitOps = 10⁶ trips ErrBudgetExceeded
// within 50 ms, because all of the solve's arithmetic is metered.
func TestOvershootMaxBitOps(t *testing.T) {
	overshootCases(t, func(name string, coeffs []*big.Int, opts Options) {
		opts.MaxBitOps = 1e6
		start := time.Now()
		_, err := FindRoots(coeffs, &opts)
		took := time.Since(start)
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("%s: err = %v, want ErrBudgetExceeded", name, err)
		}
		if took > 50*time.Millisecond {
			t.Errorf("%s: returned after %v, want ≤ 50ms", name, took)
		}
	})
}

// TestOvershootUnattributedTime: Precompute and TreeSolve cover at
// least 95% of a squarefree solve's Elapsed.
func TestOvershootUnattributedTime(t *testing.T) {
	for _, n := range []int{30, 50} {
		coeffs := bigCoeffs(t, workload.CharPoly01(3, n))
		for _, workers := range []int{1, 2} {
			res, err := FindRoots(coeffs, &Options{Profile: ProfileFast, Workers: workers})
			if err != nil {
				t.Fatalf("n=%d P=%d: %v", n, workers, err)
			}
			if frac := float64(res.Precompute+res.TreeSolve) / float64(res.Elapsed); frac < 0.95 {
				t.Errorf("n=%d P=%d: Precompute %v + TreeSolve %v is %.3f of Elapsed %v, want ≥ 0.95",
					n, workers, res.Precompute, res.TreeSolve, frac, res.Elapsed)
			}
		}
	}
}

// TestTelemetryRepeatedRootsOneRun: on input with repeated roots, the
// remainder sequence that finds them is part of the solve, not a
// failure. Under a telemetry hub and an Observer, the roots and
// multiplicities come out right, no run logs an error outcome, and the
// call's bit-ops are the aborted attempt's plus those of the Yun
// factors' solves.
func TestTelemetryRepeatedRootsOneRun(t *testing.T) {
	diag := [][]int64{ // diag(A, A) for A the 3×3 tridiagonal (1, 2, 1)
		{2, 1, 0, 0, 0, 0}, {1, 2, 1, 0, 0, 0}, {0, 1, 2, 0, 0, 0},
		{0, 0, 0, 2, 1, 0}, {0, 0, 0, 1, 2, 1}, {0, 0, 0, 0, 1, 2},
	}
	charPoly := func(rows [][]int64) *poly.Poly {
		m, err := charpoly.FromRows(rows)
		if err != nil {
			t.Fatal(err)
		}
		return charpoly.CharPoly(m)
	}
	for _, workers := range []int{1, 2} {
		var logBuf bytes.Buffer
		tel := NewTelemetry(TelemetryConfig{Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
		for _, c := range []struct {
			name string
			p    *poly.Poly
			want []core.RootMult // from the squarefree solve, with multiplicities
		}{
			{"(x-1)²(x-2)", poly.FromInt64s(-2, 5, -4, 1), []core.RootMult{{Mult: 2}, {Mult: 1}}},
			{"diag(A,A)", charPoly(diag), []core.RootMult{{Mult: 2}, {Mult: 2}, {Mult: 2}}},
		} {
			name := fmt.Sprintf("%s P=%d", c.name, workers)
			var attempt metrics.Counters
			if _, err := remseq.Compute(c.p, remseq.Options{Ctx: metrics.Ctx{C: &attempt}}); !errors.Is(err, remseq.ErrNotSquarefree) {
				t.Fatalf("%s: remseq err = %v, want ErrNotSquarefree", name, err)
			}
			want, wantRemainders := attempt.BitOps(), 1
			for _, u := range poly.Yun(c.p) {
				if u.Degree() < 1 {
					continue
				}
				if u.Degree() > 1 { // degree 1 needs no remainder sequence
					wantRemainders++
				}
				var fc metrics.Counters
				if _, err := core.FindRoots(u, core.Options{Mu: 32, Counters: &fc}); err != nil {
					t.Fatalf("%s: factor solve: %v", name, err)
				}
				want += fc.BitOps()
			}
			sf, err := core.FindRoots(c.p.SquarefreePart(), core.Options{Mu: 32})
			if err != nil {
				t.Fatal(err)
			}
			for i := range c.want {
				c.want[i].Root = sf.Roots[i]
			}

			var counters metrics.Counters
			remainders := 0
			rm, _, err := core.FindRootsWithMultiplicity(c.p, core.Options{
				Mu: 32, Workers: workers, Counters: &counters, Telemetry: tel,
				Observer: sched.ObserverFunc(func(e sched.Event) {
					if e.Kind == sched.PhaseBegin && e.Name == "remainder" {
						remainders++
					}
				}),
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if fmt.Sprint(rm) != fmt.Sprint(c.want) {
				t.Errorf("%s: roots %v, want %v", name, rm, c.want)
			}
			if got := counters.BitOps(); got != want {
				t.Errorf("%s: bit-ops %d, want %d (aborted attempt %d + Yun factors)", name, got, want, attempt.BitOps())
			}
			if remainders != wantRemainders {
				t.Errorf("%s: %d remainder phases observed, want %d: the aborted one and the factors'", name, remainders, wantRemainders)
			}
		}
		var expo bytes.Buffer
		if err := tel.Registry().WritePrometheus(&expo); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(expo.String(), `realroots_solves_total{outcome="ok"} 2`+"\n") || !strings.Contains(expo.String(), `realroots_solves_total{outcome="error"} 0`+"\n") {
			t.Errorf("P=%d: registry does not show exactly two ok solves:\n%s", workers, expo.String())
		}
		if strings.Contains(logBuf.String(), `"outcome":"error"`) {
			t.Errorf("P=%d: log records an error outcome:\n%s", workers, logBuf.String())
		}
	}
}
