package main

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"realroots/internal/dyadic"
	"realroots/internal/interval"
	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/remseq"
	"realroots/internal/server"
	"realroots/internal/tree"
)

// capture picks the snapshot pass's input: the workload's
// highest-degree squarefree polynomial (lowest id on ties).
func capture(insts []*instance) *instance {
	var best *instance
	for _, in := range insts {
		if (best == nil || in.p.Degree() > best.p.Degree()) && in.p.IsSquarefree() {
			best = in
		}
	}
	return best
}

// nsPerOp times f in batches of at least 2 ms and returns the median
// batch's time per call.
func nsPerOp(f func()) float64 {
	f() // warm caches and lazy state
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(t0); d >= 2*time.Millisecond {
			break
		}
		n *= 2
	}
	batches := make([]float64, 7)
	for b := range batches {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		batches[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(batches)
}

// allocsPerOp returns f's heap allocations per call. The count is
// exact: testing.AllocsPerRun runs on one P and divides integrally.
func allocsPerOp(f func()) float64 { return testing.AllocsPerRun(20, f) }

// randBits returns a positive integer of exactly bits bits.
func randBits(rng *rand.Rand, bits int) *mp.Int {
	if bits < 1 {
		bits = 1
	}
	x := mp.NewInt(1)
	for x.BitLen() < bits {
		step := bits - x.BitLen()
		if step > 62 {
			step = 62
		}
		x.Lsh(x, uint(step))
		x.Add(x, mp.NewInt(rng.Int63n(int64(1)<<uint(step))))
	}
	return x
}

// medianBits returns the lower edge of the operand-size bucket that
// holds the median multiplication or division of rep.
func medianBits(rep metrics.Report) int {
	tot := rep.Total()
	half, acc := (tot.Ops()+1)/2, int64(0)
	for b := 0; b < metrics.BitLenBuckets; b++ {
		if acc += tot.BitLen[b]; acc >= half && acc > 0 {
			lo, _ := metrics.BucketRange(b)
			return lo
		}
	}
	return 1
}

// snapshotPass records ns/op and allocs/op of each layer's public
// entry point on inputs captured from the workload: in, its request
// bodies, and the operand sizes of the replay's arithmetic (rep).
func snapshotPass(res *result, in *instance, prof mp.Profile, rep metrics.Report, reqs []serverReq) error {
	if in == nil {
		return fmt.Errorf("snapshot: workload has no squarefree input")
	}
	mu := in.mus[len(in.mus)-1]
	ctx := metrics.Ctx{Profile: prof}
	rng := rand.New(rand.NewSource(int64(in.id)))
	p := in.p

	for _, m := range []struct {
		name string
		bits int
	}{{"median_bits", medianBits(rep)}, {"peak_bits", rep.PeakBits()}} {
		x, y := randBits(rng, m.bits), randBits(rng, m.bits)
		z := new(mp.Int)
		res.set("mp.mul_ns."+m.name, nsPerOp(func() { z.MulProfile(prof, x, y) }), "ns")
		if m.name == "peak_bits" {
			res.set("mp.mul_allocs", allocsPerOp(func() { new(mp.Int).MulProfile(prof, x, y) }), "allocs")
		}
	}

	// A point on the 2^-µ grid next to a root: the numerator of the
	// reference approximation.
	r := in.ref[mu][len(in.ref[mu])/2].val
	a := new(mp.Int).SetBig(r.Num())
	a.Lsh(a, mu-uint(r.Denom().BitLen()-1))
	res.set("poly.evalscaled_ns", nsPerOp(func() { p.EvalScaledCtx(ctx, a, mu) }), "ns")
	res.set("poly.evalscaled_allocs", allocsPerOp(func() { p.EvalScaledCtx(ctx, a, mu) }), "allocs")
	dp := p.Derivative()
	res.set("poly.mul_ns", nsPerOp(func() { p.MulCtx(ctx, dp) }), "ns")
	res.set("poly.mul_allocs", allocsPerOp(func() { p.MulCtx(ctx, dp) }), "allocs")

	seqOpts := remseq.Options{Ctx: ctx}
	compute := func() {
		if _, err := remseq.Compute(p, seqOpts); err != nil {
			panic(err) // the replay already computed this sequence
		}
	}
	res.set("remseq.snap_us", nsPerOp(compute)/1e3, "us")
	res.set("remseq.snap_allocs", allocsPerOp(compute), "allocs")

	// The whole tree, then the largest product below the root (the
	// root's own polynomial is F₀ and needs no product) and the root's
	// interval problems.
	seq, err := remseq.Compute(p, seqOpts)
	if err != nil {
		return err
	}
	root := tree.Build(p.Degree())
	bound := p.RootBound()
	root.Walk(func(nd *tree.Node) {
		tree.ComputePoly(seq, ctx, nd)
		s := interval.NewSolver(nd.P, mergeRoots(nd), bound, mu, interval.MethodHybrid, ctx)
		nd.Roots = s.SolveAll()
	})
	nd := root.Left
	if nd == nil || nd.IsLeaf() {
		return fmt.Errorf("snapshot: degree %d has no product below the root", p.Degree())
	}
	product := func() { tree.ComputePoly(seq, ctx, nd) }
	res.set("tree.snap_us", nsPerOp(product)/1e3, "us")
	res.set("tree.snap_allocs", allocsPerOp(product), "allocs")
	ys := mergeRoots(root)
	var roots []dyadic.Dyadic
	solve := func() {
		s := interval.NewSolver(root.P, ys, bound, mu, interval.MethodHybrid, ctx)
		for i := 0; i < s.NumPoints(); i++ {
			s.EvalPoint(i)
		}
		roots = make([]dyadic.Dyadic, s.NumRoots())
		for i := range roots {
			roots[i] = s.SolveInterval(i)
		}
	}
	res.set("interval.snap_us", nsPerOp(solve)/1e3, "us")
	res.set("interval.snap_allocs", allocsPerOp(solve), "allocs")
	if len(roots) != p.Degree() {
		return fmt.Errorf("snapshot: root solve found %d roots for degree %d", len(roots), p.Degree())
	}

	decodeAll := func() {
		for _, rq := range reqs {
			if _, err := server.DecodeSolveRequest(rq.data); err != nil {
				panic(err) // the server pass already accepted these bodies
			}
		}
	}
	res.set("server.decode_us", nsPerOp(decodeAll)/1e3/float64(len(reqs)), "us")
	res.set("server.decode_allocs", allocsPerOp(decodeAll)/float64(len(reqs)), "allocs")
	return nil
}
