package main

import (
	"testing"

	"realroots/internal/mp"
	"realroots/internal/poly"
)

// Rounding the finest reference up to a coarser grid must equal the
// isolator's own answer at that precision, multiplicities included.
func TestReferenceRoundingMatchesDirectIsolation(t *testing.T) {
	for _, s := range smallSpecs(3)[:40] {
		in, err := s.build()
		if err != nil {
			t.Fatal(err)
		}
		ref, err := sturmReference(in.p, in.mus)
		if err != nil {
			t.Fatalf("input %d (%s): %v", s.id, s.kind, err)
		}
		for _, mu := range in.mus {
			direct, err := sturmReference(in.p, []uint{mu})
			if err != nil {
				t.Fatal(err)
			}
			if err := compareRoots(ref[mu], direct[mu]); err != nil {
				t.Errorf("input %d (%s) µ=%d: %v", s.id, s.kind, mu, err)
			}
		}
	}
}

func TestReferenceMultiplicities(t *testing.T) {
	// (x-1)²(x+2)³(x-4): three distinct roots.
	var roots []*mp.Int
	for _, r := range []int64{1, 1, -2, -2, -2, 4} {
		roots = append(roots, mp.NewInt(r))
	}
	ref, err := sturmReference(poly.FromRoots(roots...), []uint{16})
	if err != nil {
		t.Fatal(err)
	}
	got := ref[16]
	want := []struct {
		v    int64
		mult int
	}{{-2, 3}, {1, 2}, {4, 1}}
	if len(got) != len(want) {
		t.Fatalf("%d distinct roots, want %d", len(got), len(want))
	}
	for i, w := range want {
		if !got[i].val.IsInt() || got[i].val.Num().Int64() != w.v || got[i].mult != w.mult {
			t.Errorf("root %d = %s ×%d, want %d ×%d", i, got[i].val.RatString(), got[i].mult, w.v, w.mult)
		}
	}
}
