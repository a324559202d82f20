package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"realroots"
	"realroots/internal/charpoly"
	"realroots/internal/core"
	"realroots/internal/dyadic"
	"realroots/internal/interval"
	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/remseq"
	"realroots/internal/trace"
	"realroots/internal/tree"
)

// outDir holds the traced run's Chrome trace and self-time table.
const outDir = ".bench_build/perfbench"

// replayInput replays the sequential public-API pipeline on p with a
// span around every layer call, in the order realroots.FindRoots makes
// them: the public squarefree pre-check, then either core's own check
// and the paper's pipeline, or Yun's decomposition and the pipeline on
// each factor.
func replayInput(rec *recorder, req int, p *poly.Poly, mu uint, prof mp.Profile) ([]refRoot, error) {
	rec.begin("realroots.solve", req, false)
	defer rec.end()
	rec.begin("realroots.precheck", req, true)
	sq := p.IsSquarefree()
	rec.end()
	if sq {
		roots, err := replayCore(rec, req, p, mu, prof)
		if err != nil {
			return nil, err
		}
		out := make([]refRoot, len(roots))
		for i, r := range roots {
			out[i] = refRoot{val: r.Rat(), mult: 1}
		}
		return out, nil
	}
	rec.begin("poly.yun", req, true)
	factors := poly.Yun(p)
	rec.end()
	var out []refRoot
	for k, u := range factors {
		if u.Degree() < 1 {
			continue
		}
		roots, err := replayCore(rec, req, u, mu, prof)
		if err != nil {
			return nil, err
		}
		for _, r := range roots {
			out = append(out, refRoot{val: r.Rat(), mult: k + 1})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].val.Cmp(out[j].val) < 0 })
	return out, nil
}

// replayCore is core.FindRoots on one sequential worker: the squarefree
// check, the remainder sequence, then per tree node (post-order) the
// node polynomial, the merge of the children's roots, the interleaving
// evaluations and the interval problems.
func replayCore(rec *recorder, req int, p *poly.Poly, mu uint, prof mp.Profile) ([]dyadic.Dyadic, error) {
	rec.begin("core.solve", req, false)
	defer rec.end()
	base := metrics.Ctx{Profile: prof}
	rec.begin("poly.sqfree_check", req, true)
	sq := p.IsSquarefreeProfile(prof)
	rec.end()
	if !sq {
		rec.begin("poly.sqfree_part", req, true)
		p = p.SquarefreePartProfile(prof)
		rec.end()
	}
	n := p.Degree()
	bound := p.RootBound()
	if n == 1 {
		s := rec.begin("interval.solve", req, true)
		roots := interval.NewSolver(p, nil, bound, mu, interval.MethodHybrid, s.ctx(base)).SolveAll()
		rec.end()
		return roots, nil
	}
	s := rec.begin("remseq.compute", req, true)
	seq, err := remseq.Compute(p, remseq.Options{Ctx: s.ctx(base)})
	if err == nil {
		err = seq.Validate()
	}
	rec.end()
	if err != nil {
		return nil, err
	}
	root := tree.Build(n)
	root.Walk(func(nd *tree.Node) {
		s := rec.begin("tree.computepoly", req, true)
		tree.ComputePoly(seq, s.ctx(base), nd)
		rec.end()
		rec.begin("core.sort", req, false)
		ys := mergeRoots(nd)
		rec.end()
		pre := rec.begin("interval.pre", req, true)
		sv := interval.NewSolver(nd.P, ys, bound, mu, interval.MethodHybrid, pre.ctx(base))
		for i := 0; i < sv.NumPoints(); i++ {
			sv.EvalPoint(i)
		}
		rec.end()
		// The solver keeps the sink it was built with, so the interval
		// problems record into the pre-interval span's counters.
		s = rec.begin("interval.solve", req, true)
		s.C = pre.C
		roots := make([]dyadic.Dyadic, sv.NumRoots())
		for i := range roots {
			roots[i] = sv.SolveInterval(i)
		}
		rec.end()
		nd.Roots = roots
	})
	return root.Roots, nil
}

// mergeRoots merges the children's sorted roots (core's SORT task).
func mergeRoots(nd *tree.Node) []dyadic.Dyadic {
	var left, right []dyadic.Dyadic
	if nd.Left != nil {
		left = nd.Left.Roots
	}
	if nd.Right != nil {
		right = nd.Right.Roots
	}
	out := make([]dyadic.Dyadic, 0, len(left)+len(right))
	i, j := 0, 0
	for i < len(left) && j < len(right) {
		if left[i].Cmp(right[j]) <= 0 {
			out = append(out, left[i])
			i++
		} else {
			out = append(out, right[j])
			j++
		}
	}
	out = append(out, left[i:]...)
	return append(out, right[j:]...)
}

// layerPass accumulates the per-layer metrics of the replay, API and
// scheduler passes over a workload's inputs.
type layerPass struct {
	rec                      *recorder
	inputs, roots            int
	apiWall, statsWall       time.Duration
	charpolyWall             time.Duration
	matrices                 int
	schedWall, schedBusy     time.Duration
	schedWait, schedSerialWt time.Duration
	schedTasks, schedSolves  int64
}

// run solves c through the public API (untraced, P=1), replays it with
// spans, runs it once more through core at P=2 with core's tracer for
// the scheduler metrics, and checks the replay's and the API's answers.
func (lp *layerPass) run(res *result, c solveCase, prof realroots.Profile) error {
	in := c.inst
	want := in.ref[c.mu]
	r, err := realroots.FindRoots(in.coeffs, &realroots.Options{Precision: c.mu, Profile: prof})
	var diff error
	if err == nil {
		diff = compareRoots(fromResult(r), want)
		lp.apiWall += r.Elapsed
		lp.statsWall += r.Precompute + r.TreeSolve
	}
	label := fmt.Sprintf("input %d µ=%d", in.id, c.mu)
	res.note(label+" api", err, diff)

	got, err := replayInput(lp.rec, lp.inputs, in.p, c.mu, mp.Profile(prof))
	if err == nil {
		diff = compareRoots(got, want)
	}
	res.note(label+" replay", err, diff)
	lp.inputs++
	lp.roots += len(want)

	if in.rows != nil {
		t0 := time.Now()
		m, err := charpoly.FromRows(in.rows)
		if err != nil {
			return err
		}
		if cp := charpoly.CharPoly(m); !cp.Equal(in.p) {
			res.note(label+" charpoly", nil, fmt.Errorf("characteristic polynomial differs"))
		}
		lp.charpolyWall += time.Since(t0)
		lp.matrices++
	}

	tr := trace.New()
	cr, err := core.FindRoots(in.p, core.Options{Mu: c.mu, Workers: 2, Method: interval.MethodHybrid, Profile: mp.Profile(prof), Tracer: tr})
	if err != nil {
		return fmt.Errorf("%s: P=2 core solve: %w", label, err)
	}
	sum := tr.Summarize()
	lp.schedWall += sum.Wall
	lp.schedBusy += sum.Busy
	lp.schedSerialWt += time.Duration(sum.SerialFraction * float64(sum.Wall))
	for _, l := range sum.Lanes {
		lp.schedWait += l.Wait
	}
	lp.schedTasks += cr.Stats.TaskKinds.Total()
	lp.schedSolves++
	return nil
}

// report sets the replay, API and scheduler metrics.
func (lp *layerPass) report(res *result) metrics.Report {
	spans := lp.rec.spans
	per := func(v float64) float64 { return ratio(v, float64(lp.inputs)) }
	wall := map[string]time.Duration{}
	allocs := map[string]uint64{}
	var leaf, top time.Duration
	hasChild := make([]bool, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	seen := map[*metrics.Counters]bool{}
	var rep metrics.Report
	for i, s := range spans {
		wall[s.Name] += s.dur()
		allocs[s.layer()] += s.Allocs
		if !hasChild[i] && s.layer() != "bench" {
			leaf += s.dur()
		}
		if s.Parent < 0 {
			top += s.dur()
		}
		if !seen[s.C] {
			seen[s.C] = true
			rep = rep.Add(s.C.Snapshot())
		}
	}
	bitops := func(ps ...metrics.Phase) float64 {
		t := rep.Sum(ps...)
		return per(float64(t.MulBits + t.DivBits))
	}
	intervalPhases := []metrics.Phase{metrics.PhasePreInterval, metrics.PhaseSieve, metrics.PhaseBisection, metrics.PhaseNewton}
	api := float64(lp.apiWall)

	res.set("realroots.precheck_ms", per(ms(wall["realroots.precheck"])), "ms")
	res.set("realroots.attributed_frac", ratio(float64(leaf), api), "ratio")
	res.set("core.stats_attributed_frac", ratio(float64(lp.statsWall), api), "ratio")
	res.set("poly.sqfree_check_ms", per(ms(wall["poly.sqfree_check"])), "ms")
	res.set("poly.yun_ms", per(ms(wall["poly.yun"])), "ms")
	res.set("remseq.ms", per(ms(wall["remseq.compute"])), "ms")
	res.set("remseq.bitops", bitops(metrics.PhaseRemainder), "bitops")
	res.set("remseq.allocs", per(float64(allocs["remseq"])), "allocs")
	res.set("tree.ms", per(ms(wall["tree.computepoly"])), "ms")
	res.set("tree.bitops", bitops(metrics.PhaseTree), "bitops")
	res.set("tree.allocs", per(float64(allocs["tree"])), "allocs")
	res.set("interval.pre_ms", per(ms(wall["interval.pre"])), "ms")
	res.set("interval.solve_ms", per(ms(wall["interval.solve"])), "ms")
	res.set("interval.bitops", bitops(intervalPhases...), "bitops")
	res.set("interval.allocs", per(float64(allocs["interval"])), "allocs")
	res.set("interval.evals_per_root", ratio(float64(rep.Sum(intervalPhases...).Evals), float64(lp.roots)), "evals")
	tot := rep.Total()
	res.set("mp.muls", per(float64(tot.Muls)), "count")
	res.set("mp.divs", per(float64(tot.Divs)), "count")
	res.set("mp.bitops", per(float64(tot.MulBits+tot.DivBits)), "bitops")
	res.set("mp.peak_operand_bits", float64(rep.PeakBits()), "bits")
	res.set("mp.tier_karatsuba", per(float64(tot.Tiers[mp.TierKaratsuba])), "count")
	res.set("bench.trace_overhead_frac", ratio(float64(top), api)-1, "ratio")
	res.set("charpoly.ms", ratio(ms(lp.charpolyWall), float64(lp.matrices)), "ms")

	res.set("sched.tasks", ratio(float64(lp.schedTasks), float64(lp.schedSolves)), "count")
	res.set("sched.busy_frac", ratio(float64(lp.schedBusy), 2*float64(lp.schedWall)), "ratio")
	res.set("sched.queue_wait_ms", ratio(ms(lp.schedWait), float64(lp.schedTasks)), "ms")
	res.set("sched.parallelism", ratio(float64(lp.schedBusy), float64(lp.schedWall)), "ratio")
	res.set("sched.serial_frac", ratio(float64(lp.schedSerialWt), float64(lp.schedWall)), "ratio")
	return rep
}

// writeTrace writes the replay's spans as Chrome trace-event JSON,
// checks it with the validator cmd/validatetrace uses, and writes the
// self-time table next to it and to log.
func writeTrace(spans []*span, name string, seed int64, log io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := writeChrome(&buf, spans); err != nil {
		return err
	}
	if err := trace.ValidateChrome(buf.Bytes()); err != nil {
		return err
	}
	base := filepath.Join(outDir, fmt.Sprintf("trace-%s-%d", name, seed))
	if err := os.WriteFile(base+".json", buf.Bytes(), 0o644); err != nil {
		return err
	}
	var table bytes.Buffer
	writeSelfTable(&table, spans)
	fmt.Fprintf(log, "self time per layer (%s.json):\n%s", base, table.String())
	return os.WriteFile(base+".txt", table.Bytes(), 0o644)
}

// traceSolve is a solve workload's traced run: the layer pass over
// every case, the server pass, and the snapshot pass.
func traceSolve(env *solveEnv, name string, seed int64, log io.Writer) (*result, error) {
	res := newResult()
	lp := &layerPass{rec: newRecorder()}
	for _, idx := range env.order {
		if err := lp.run(res, env.cases[idx], env.profile); err != nil {
			return nil, err
		}
	}
	rep := lp.report(res)
	if err := writeTrace(lp.rec.spans, name, seed, log); err != nil {
		return nil, err
	}

	profile, workers := "", 1
	if env.large {
		profile, workers = "fast", 2
	}
	var reqs []serverReq
	for _, idx := range env.order {
		c := env.cases[idx]
		data, err := requestJSON(c.inst, c.mu, profile, workers)
		if err != nil {
			return nil, err
		}
		reqs = append(reqs, serverReq{data: data, want: c.inst.ref[c.mu]})
	}
	if err := serverPassClosed(res, reqs, log); err != nil {
		return nil, err
	}
	return res, snapshotPass(res, capture(env.insts), mp.Profile(env.profile), rep, reqs)
}
