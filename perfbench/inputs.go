package main

import (
	"encoding/json"
	"fmt"
	"math/big"
	"math/rand"

	"realroots/internal/charpoly"
	"realroots/internal/poly"
	"realroots/internal/workload"
)

// An instance is one input polynomial of a solve workload. Its roots
// are solved at each precision in mus.
type instance struct {
	id     int
	kind   string
	n      int // nominal size: matrix order or target degree
	p      *poly.Poly
	coeffs []*big.Int
	// rows is the symmetric 0-1 matrix p is the characteristic
	// polynomial of (nil for other kinds).
	rows [][]int64
	mus  []uint
	// ref[µ] is the expected answer at precision µ.
	ref map[uint][]refRoot
}

// A solveCase is one timed solve: an instance at one precision.
type solveCase struct {
	inst *instance
	mu   uint
}

func newInstance(s spec, p *poly.Poly, rows [][]int64) *instance {
	c := make([]*big.Int, p.Degree()+1)
	for i := range c {
		c[i] = p.Coeff(i).ToBig()
	}
	return &instance{id: s.id, kind: s.kind, n: s.n, p: p, coeffs: c, rows: rows, mus: s.mus}
}

// A spec fixes one input: its kind, size and seed. Inputs are drawn
// as specs first, in order, so that building them can run in parallel
// and still depend only on the workload seed.
type spec struct {
	id   int
	kind string
	n    int
	seed int64
	mus  []uint
}

// build makes the spec's polynomial: the characteristic polynomial of
// a random symmetric 0-1 matrix ("charpoly01"), of diag(A, A)
// for such an A of order n/2 ("charpoly01x2", all roots double), of a
// random tridiagonal matrix ("tridiagonal", distinct roots), or a
// product of n/2 random integer linear factors to powers 1–3
// ("repeated").
func (s spec) build() (*instance, error) {
	var rows [][]int64
	switch s.kind {
	case "charpoly01":
		rows = workload.SymmetricRows01(s.seed, s.n)
	case "charpoly01x2":
		rows = doubledRows(s.seed, s.n/2)
	case "tridiagonal":
		return newInstance(s, workload.Tridiagonal(s.seed, s.n, 3), nil), nil
	case "repeated":
		return newInstance(s, workload.WithMultiplicities(s.seed, s.n/2, 2*s.n, 3), nil), nil
	default:
		return nil, fmt.Errorf("unknown input kind %q", s.kind)
	}
	m, err := charpoly.FromRows(rows)
	if err != nil {
		return nil, err
	}
	return newInstance(s, charpoly.CharPoly(m), rows), nil
}

// doubledRows returns diag(A, A) for the random symmetric 0-1 matrix A
// of order m.
func doubledRows(seed int64, m int) [][]int64 {
	a := workload.SymmetricRows01(seed, m)
	rows := make([][]int64, 2*m)
	for i := range rows {
		rows[i] = make([]int64, 2*m)
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			rows[i][j] = a[i][j]
			rows[m+i][m+j] = a[i][j]
		}
	}
	return rows
}

// smallSpecs are solve-small's inputs: for each order n, sixteen
// polynomials — six characteristic polynomials of random symmetric 0-1
// matrices, six tridiagonal ones and four with repeated integer roots —
// each solved at µ = 16, 32 and 64. The grid is fixed and the seed
// draws the entries, so every seed has the same mix of sizes, kinds and
// precisions.
func smallSpecs(seed int64) []spec {
	rng := rand.New(rand.NewSource(seed))
	var out []spec
	for _, n := range []int{4, 8, 12, 16, 20} {
		for slot := 0; slot < 16; slot++ {
			kind := "repeated"
			switch {
			case slot < 6:
				kind = "charpoly01"
			case slot < 12:
				kind = "tridiagonal"
			}
			out = append(out, spec{len(out), kind, n, rng.Int63(), []uint{16, 32, 64}})
		}
	}
	return out
}

// largeSpecs are solve-large's inputs, the paper's: two characteristic
// polynomials of random symmetric 0-1 matrices at each order
// n ∈ {30, 40, 50}, plus one of diag(A, A) at order 40 so the
// repeated-root path is timed too; each solved at µ = 32 and 64.
func largeSpecs(seed int64) []spec {
	rng := rand.New(rand.NewSource(seed))
	var out []spec
	for _, n := range []int{30, 40, 50} {
		for k := 0; k < 2; k++ {
			out = append(out, spec{len(out), "charpoly01", n, rng.Int63(), []uint{32, 64}})
		}
	}
	return append(out, spec{len(out), "charpoly01x2", 40, rng.Int63(), []uint{32, 64}})
}

func casesOf(insts []*instance) []solveCase {
	var cs []solveCase
	for _, in := range insts {
		for _, mu := range in.mus {
			cs = append(cs, solveCase{in, mu})
		}
	}
	return cs
}

// requestJSON encodes a /v1/solve body for the instance.
func requestJSON(in *instance, mu uint, profile string, workers int) ([]byte, error) {
	req := map[string]any{"precision": mu}
	if profile != "" {
		req["profile"] = profile
	}
	if workers > 0 {
		req["workers"] = workers
	}
	cs := make([]string, len(in.coeffs))
	for i, c := range in.coeffs {
		cs[i] = c.String()
	}
	req["poly"] = map[string]any{"coeffs": cs}
	b, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("encoding request %d: %w", in.id, err)
	}
	return b, nil
}
