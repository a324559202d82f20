// Package core implements the complete parallel root-approximation
// algorithm of Narendran & Tiwari: the precomputation of the remainder
// and quotient sequences (§3.1), the bottom-up computation of the
// interleaving-tree polynomials, and the interval problems at every
// node (§3.2), orchestrated either sequentially or on a dynamic
// task-queue scheduler whose task kinds and dependencies mirror the
// paper's Fig. 3.2 (RECURSE, COMPUTEPOLY split into per-entry matrix
// tasks, SORT, PREINTERVAL, INTERVAL).
package core

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"realroots/internal/dyadic"
	"realroots/internal/interval"
	"realroots/internal/metrics"
	"realroots/internal/mp"
	"realroots/internal/poly"
	"realroots/internal/remseq"
	"realroots/internal/sched"
	"realroots/internal/telemetry"
	"realroots/internal/trace"
	"realroots/internal/tree"
)

// Options configures a root-finding run.
type Options struct {
	// Mu is the output precision: roots are returned as 2^-µ·⌈2^µ·x⌉.
	Mu uint
	// Workers is the number of scheduler workers (the paper's processor
	// count). 0 or 1 runs the fully sequential path.
	Workers int
	// Method selects the interval-refinement strategy (default: the
	// paper's hybrid).
	Method interval.Method
	// SequentialPrecompute forces the remainder-sequence stage to run
	// sequentially even when Workers > 1 — the paper's run-time option.
	SequentialPrecompute bool
	// Profile selects the big-integer arithmetic algorithms for this run:
	// mp.Schoolbook (the zero value) is the paper's quadratic cost model,
	// mp.Fast enables the subquadratic kernels. The profile is carried on
	// the run's metrics.Ctx — never in package state — so concurrent runs
	// with different profiles are race-free. Recorded operation counts
	// and model bit costs are identical under both profiles.
	Profile mp.Profile
	// SimulateWorkers, when > 0, executes the task graph on one real
	// worker while list-scheduling the measured task durations onto this
	// many *virtual* processors (see sched.NewSimulatedPool). The
	// simulated makespan is reported in Stats. Used to reproduce the
	// paper's multiprocessor speedup experiments on hosts without the
	// paper's 20-processor shared-memory machine. Mutually exclusive
	// with Workers.
	SimulateWorkers int
	// Counters, if non-nil, accumulates per-phase arithmetic counts.
	Counters *metrics.Counters
	// Tracer, if non-nil, records wall-clock spans: pipeline phase
	// spans on the control lane, per-worker task timelines on the
	// scheduler (parallel runs), and per-node task spans on the
	// control lane (sequential runs). A nil Tracer adds no
	// allocations to the solver hot path.
	Tracer *trace.Tracer
	// CheckTree enables the Theorem 1 structural self-check on the
	// computed tree (tests and debugging).
	CheckTree bool
	// Telemetry, if non-nil, receives the run's lifecycle: a structured
	// start/finish log record, phase and scheduler-task records in the
	// flight recorder, and — at Finish — the run's outcome, wall time,
	// and arithmetic metrics folded into the hub's registry. Unlike
	// Tracer it is designed to stay attached in production: its memory
	// is bounded and a nil hub adds no allocations. When set and
	// Counters is nil, internal counters are allocated so the registry
	// still sees the run's arithmetic metrics.
	Telemetry *telemetry.Telemetry

	// Ctx carries cancellation and deadlines into the run; nil means
	// context.Background(). Cancellation mid-phase drains the scheduler
	// queue (parallel runs) or aborts at the next per-node / per-interval
	// checkpoint (sequential runs) and returns ErrCanceled or
	// ErrDeadline with the partial Stats gathered so far.
	Ctx context.Context
	// MaxBitOps bounds the run's arithmetic work: the cumulative
	// Σ bitlen·bitlen over big-integer multiplications and divisions
	// (the paper's §4 bit-complexity measure, metered by the metrics
	// sink). Exceeding it returns ErrBudgetExceeded. 0 means unlimited.
	// When no Counters are supplied, internal ones are allocated to
	// meter the budget.
	MaxBitOps int64
	// Observer, if non-nil, subscribes to the run's instrumentation
	// stream (phases, and tasks on pool workers or, in sequential
	// runs, on sched.ControlLane) after Tracer and Telemetry — rootd's
	// request tracker and internal/faultinject plans. A panic from a
	// pool task's TaskStart is isolated like a task panic.
	Observer sched.Observer
	// RequestID, if non-empty, names the external request this run
	// serves (rootd's X-Request-Id). It is stamped on every telemetry
	// sink the run touches — slog records, flight-recorder events,
	// trace spans, and scheduler panic errors — so one ID recovers the
	// run from any of them.
	RequestID string
}

// Stats reports timing and scheduling details of a run.
type Stats struct {
	Precompute time.Duration // remainder-sequence stage, every attempt
	TreeSolve  time.Duration // tree polynomials + all interval problems
	Total      time.Duration
	Tasks      int64 // tasks executed by the scheduler (parallel runs)

	// Simulation-mode outputs (Options.SimulateWorkers > 0):
	// SimMakespan is the virtual completion time on the simulated
	// processors; SimWork is the total measured task time (the
	// one-processor makespan).
	SimMakespan, SimWork time.Duration

	// TaskKinds counts the scheduler tasks executed per kind on
	// parallel/simulated runs — the task taxonomy of the paper's
	// Fig. 3.2 plus the precomputation stage's coefficient tasks.
	TaskKinds TaskKindCounts
}

// TaskKindCounts breaks the executed tasks down by kind.
type TaskKindCounts struct {
	Precompute  int64 // remainder-stage coefficient tasks (§3.1)
	ComputePoly int64 // matrix-entry products, seeds, and divisions (§3.2)
	Sort        int64 // child-root merges
	PreInterval int64 // interleaving-point evaluations
	Interval    int64 // per-root interval problems
}

// Total returns the total task count.
func (t TaskKindCounts) Total() int64 {
	return t.Precompute + t.ComputePoly + t.Sort + t.PreInterval + t.Interval
}

// Result is the outcome of FindRoots.
type Result struct {
	// Roots holds the µ-approximations of the distinct real roots of
	// the input, in ascending order.
	Roots []dyadic.Dyadic
	// Degree is the input degree; NStar the number of distinct roots.
	Degree, NStar int
	// Squarefree reports whether the input itself was squarefree.
	Squarefree bool
	Stats      Stats
}

// A RootMult is a distinct root together with its multiplicity.
type RootMult struct {
	Root dyadic.Dyadic
	Mult int
}

// ErrNoRealRoots wraps the precondition violations from remseq.
var (
	ErrNotAllReal = remseq.ErrNotAllReal
)

// FindRoots computes µ-approximations to all distinct real roots of p,
// which must be a non-constant integer polynomial all of whose roots
// are real. No squarefree check precedes the pipeline: the remainder
// sequence of p and p′ is the computation of gcd(p, p′), so it is the
// test. Only when it finds repeated roots (remseq.ErrNotSquarefree)
// does the solve reduce p to its squarefree part and run the pipeline
// on that — the preprocessing counterpart of the paper's §2.3
// extension. The attempt that found the repeated roots stays part of
// the solve: its arithmetic counts against MaxBitOps and its time is
// in Stats.Precompute.
//
// When the run is cut short (ErrCanceled, ErrDeadline,
// ErrBudgetExceeded, or an isolated task panic — see IsResilience),
// the returned Result is non-nil with no Roots but with the partial
// Stats gathered up to the interruption.
func FindRoots(p *poly.Poly, opts Options) (*Result, error) {
	res, _, err := solve(p, opts, func(p *poly.Poly) []*poly.Poly {
		return []*poly.Poly{p.SquarefreePartProfile(opts.Profile)}
	})
	return res, err
}

// FindRootsWithMultiplicity computes every distinct real root of p
// together with its multiplicity. It runs the pipeline on p as
// FindRoots does; only when the remainder sequence finds repeated roots
// does it solve each factor of p's Yun squarefree decomposition (each
// squarefree, so each goes straight to the pipeline) and merge. The
// returned Stats cover every pipeline run of the call, with Total its
// wall time; when a run is cut short (see IsResilience) they cover the
// work done so far.
func FindRootsWithMultiplicity(p *poly.Poly, opts Options) ([]RootMult, Stats, error) {
	res, rm, err := solve(p, opts, poly.Yun)
	if res == nil {
		return nil, Stats{}, err
	}
	return rm, res.Stats, err
}

// solve is the one body of FindRoots and FindRootsWithMultiplicity: a
// telemetry run spans the whole call, in which the pipeline runs on p
// and, only if that finds repeated roots, on each squarefree factor
// from split (factor k holds the roots of multiplicity k+1).
func solve(p *poly.Poly, opts Options, split func(*poly.Poly) []*poly.Poly) (*Result, []RootMult, error) {
	start := time.Now()
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	if p.Degree() < 1 {
		return nil, nil, fmt.Errorf("core: polynomial of degree %d has no roots", p.Degree())
	}
	workers := opts.Workers
	if opts.SimulateWorkers > 0 {
		workers = opts.SimulateWorkers
	}
	if workers < 1 {
		workers = 1
	}
	opts.Tracer.SetRequestID(opts.RequestID)
	run := opts.Telemetry.Start(telemetry.RunInfo{
		Kind:      "core",
		Degree:    p.Degree(),
		Mu:        opts.Mu,
		Workers:   workers,
		RequestID: opts.RequestID,
	})
	counters := opts.Counters
	if counters == nil && (opts.MaxBitOps > 0 || run != nil) {
		counters = &metrics.Counters{} // budget metering and telemetry need a sink
	}
	res, rm, err := execute(p, opts, counters, run, split)
	if run != nil {
		// Summarize sorts every lane's intervals; with always-on
		// serving-path tracing this runs on every solve, so skip the
		// work entirely when nothing was recorded (e.g. a degree-1
		// short-circuit or a capped-out tracer).
		if opts.Tracer != nil && opts.Tracer.SpanCount() > 0 {
			run.Utilization(opts.Tracer.Summarize())
		}
		run.Finish(RunOutcome(err), len(rm), counters.BitOps(), counters.Snapshot())
	}
	if err != nil && !IsResilience(err) {
		return nil, nil, err
	}
	res.Degree = p.Degree()
	res.Stats.Total = time.Since(start)
	return res, rm, err
}

// Subscribers fans a run's stream out to its present sinks; with none
// it is nil, which delivers nothing and allocates nothing. other goes
// last, so a fault plan in it panics after the others opened the task.
func Subscribers(tr *trace.Tracer, run *telemetry.Run, other sched.Observer) sched.Observers {
	var obs sched.Observers
	if tr != nil {
		obs = append(obs, tr)
	}
	if run != nil {
		obs = append(obs, run)
	}
	if other != nil {
		obs = append(obs, other)
	}
	return obs
}

// Checkpoint returns a run's stop poll: ErrCanceled or ErrDeadline once
// ctx is done, ErrBudgetExceeded once counters trip their budget.
func Checkpoint(ctx context.Context, counters *metrics.Counters) func() error {
	return func() error {
		select {
		case <-ctx.Done():
			return ctxErr(ctx.Err())
		default:
		}
		if counters.BudgetExceeded() {
			return ErrBudgetExceeded
		}
		return nil
	}
}

// emit raises one event on the control lane of a run's stream.
func emit(obs sched.Observers, kind sched.EventKind, name string) {
	obs.Observe(sched.Event{Kind: kind, Name: name, Worker: sched.ControlLane})
}

// A solver holds what every pipeline run of one core call shares: the
// pool, the stream, the stop poll, and the Stats they add up.
type solver struct {
	opts  Options
	mctx  metrics.Ctx
	pool  *sched.Pool // nil on sequential runs
	obs   sched.Observers
	stop  func() error
	stats Stats
	tally taskTally
}

// execute sets up the call's pool, cancellation, and budget, then runs
// the pipeline on p and, on remseq.ErrNotSquarefree, on split's factors.
// The Result it returns carries the Stats even when err is non-nil.
func execute(p *poly.Poly, opts Options, counters *metrics.Counters, run *telemetry.Run, split func(*poly.Poly) []*poly.Poly) (*Result, []RootMult, error) {
	ctx := opts.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	s := &solver{
		opts: opts,
		mctx: metrics.Ctx{C: counters, Profile: opts.Profile},
		obs:  Subscribers(opts.Tracer, run, opts.Observer),
		// The sequential-path checkpoint, polled per remainder
		// iteration, per tree node, and per interval problem. The
		// parallel path enforces the same conditions through pool
		// cancellation.
		stop: Checkpoint(ctx, counters),
	}
	switch {
	case opts.SimulateWorkers > 0:
		s.pool = sched.NewSimulatedPool(opts.SimulateWorkers)
	case opts.Workers > 1:
		s.pool = sched.NewPool(opts.Workers)
	}
	if pool := s.pool; pool != nil {
		if run != nil {
			// Registered before the Close defer so it runs after it
			// (LIFO): the stats snapshot then covers the full drain.
			defer func() { run.SchedStats(pool.Stats()) }()
		}
		defer pool.Close()
		if s.obs != nil {
			pool.SetObserver(s.obs)
		}
		if opts.RequestID != "" {
			pool.SetLabel(opts.RequestID)
		}
		// Forward context cancellation to the pool; the watchdog exits
		// when the run finishes.
		watchDone := make(chan struct{})
		defer close(watchDone)
		go func() {
			select {
			case <-ctx.Done():
				pool.Cancel(ctxErr(ctx.Err()))
			case <-watchDone:
			}
		}()
	}
	if counters != nil && opts.MaxBitOps > 0 {
		cancelPool := s.pool // nil on sequential runs: stop() polls instead
		counters.SetBudget(opts.MaxBitOps, func() {
			run.BudgetExhausted(counters.BitOps())
			if cancelPool != nil {
				cancelPool.Cancel(ErrBudgetExceeded)
			}
		})
	}

	var rm []RootMult
	roots, err := s.pipeline(p)
	for _, r := range roots {
		rm = append(rm, RootMult{Root: r, Mult: 1})
	}
	squarefree := !errors.Is(err, remseq.ErrNotSquarefree)
	if !squarefree {
		err = nil
		for k, u := range split(p) {
			if u.Degree() < 1 {
				continue
			}
			if roots, err = s.pipeline(u); err != nil {
				err = fmt.Errorf("core: multiplicity-%d factor: %w", k+1, err)
				break
			}
			for _, r := range roots {
				rm = append(rm, RootMult{Root: r, Mult: k + 1})
			}
		}
		// Merge-sort the factor outputs (each is sorted; factors' root
		// sets are disjoint).
		for i := 1; i < len(rm); i++ {
			for j := i; j > 0 && rm[j].Root.Cmp(rm[j-1].Root) < 0; j-- {
				rm[j], rm[j-1] = rm[j-1], rm[j]
			}
		}
	}
	if err != nil {
		rm = nil
	}
	res := &Result{NStar: len(rm), Squarefree: squarefree, Stats: s.stats}
	for _, r := range rm {
		res.Roots = append(res.Roots, r.Root)
	}
	if s.pool != nil {
		res.Stats.Tasks = s.pool.Executed()
		res.Stats.SimMakespan, res.Stats.SimWork = s.pool.SimStats()
		res.Stats.TaskKinds.ComputePoly = s.tally.computePoly.Load()
		res.Stats.TaskKinds.Sort = s.tally.sort.Load()
		res.Stats.TaskKinds.PreInterval = s.tally.preInterval.Load()
		res.Stats.TaskKinds.Interval = s.tally.interval.Load()
	}
	return res, rm, err
}

// pipeline runs the paper's two stages on p, adding their times and
// remainder-task count to s.stats. Its remainder sequence is also the
// squarefree test: it fails with remseq.ErrNotSquarefree when p has
// repeated roots.
func (s *solver) pipeline(p *poly.Poly) ([]dyadic.Dyadic, error) {
	n := p.Degree()
	if err := s.stop(); err != nil {
		return nil, err
	}

	// Degree-1 short-circuit: nothing to precompute; the one interval
	// problem is the whole tree stage.
	if n == 1 {
		t1 := time.Now()
		emit(s.obs, sched.TaskStart, "interval")
		roots := interval.NewSolver(p, nil, p.RootBound(), s.opts.Mu, s.opts.Method, s.mctx).SolveAll()
		emit(s.obs, sched.TaskDone, "interval")
		s.stats.TreeSolve += time.Since(t1)
		return roots, nil
	}

	// Stage 1: remainder and quotient sequences.
	emit(s.obs, sched.PhaseBegin, "remainder")
	t0 := time.Now()
	seqOpts := remseq.Options{Ctx: s.mctx, Stop: s.stop}
	var executed int64
	if s.pool != nil {
		executed = s.pool.Executed()
		if !s.opts.SequentialPrecompute {
			seqOpts.Pool = s.pool
		}
	}
	seq, err := remseq.Compute(p, seqOpts)
	if err == nil {
		err = seq.Validate()
	}
	s.stats.Precompute += time.Since(t0)
	if s.pool != nil {
		s.stats.TaskKinds.Precompute += s.pool.Executed() - executed
	}
	emit(s.obs, sched.PhaseEnd, "remainder")
	if err != nil {
		return nil, err
	}

	// Stage 2: tree polynomials and interval problems.
	if err := s.stop(); err != nil {
		return nil, err
	}
	t1 := time.Now()
	emit(s.obs, sched.PhaseBegin, "solve")
	root := tree.Build(n)
	bound := p.RootBound()
	if s.pool == nil {
		err = s.solveSequential(seq, root, bound)
	} else {
		err = s.solveParallel(seq, root, bound)
	}
	s.stats.TreeSolve += time.Since(t1)
	emit(s.obs, sched.PhaseEnd, "solve")
	if err != nil {
		return nil, err
	}
	if s.opts.CheckTree {
		if err := tree.CheckShape(root, n); err != nil {
			return nil, err
		}
	}
	if len(root.Roots) != n {
		return nil, fmt.Errorf("core: solved %d roots for degree %d (internal invariant)", len(root.Roots), n)
	}
	return root.Roots, nil
}

// mergeRoots merges the two sorted child root slices (the SORT task).
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
	out = append(out, right[j:]...)
	return out
}

// solveSequential runs the whole second stage in post-order on the
// calling goroutine, polling stop between nodes and between interval
// problems so cancellation and budget exhaustion abort mid-phase. Each
// node step is a control-lane task on the stream, tagged like the
// parallel scheduler's tasks, so sequential and parallel traces
// aggregate under the same task kinds.
func (s *solver) solveSequential(seq *remseq.Sequence, root *tree.Node, bound *mp.Int) error {
	var werr error
	root.Walk(func(nd *tree.Node) {
		if werr != nil {
			return
		}
		if werr = s.stop(); werr != nil {
			return
		}
		emit(s.obs, sched.TaskStart, "computepoly")
		tree.ComputePoly(seq, s.mctx, nd)
		emit(s.obs, sched.TaskDone, "computepoly")
		emit(s.obs, sched.TaskStart, "sort")
		ys := mergeRoots(nd)
		emit(s.obs, sched.TaskDone, "sort")
		emit(s.obs, sched.TaskStart, "preinterval")
		sv := interval.NewSolver(nd.P, ys, bound, s.opts.Mu, s.opts.Method, s.mctx)
		for i := 0; i < sv.NumPoints(); i++ {
			sv.EvalPoint(i)
		}
		emit(s.obs, sched.TaskDone, "preinterval")
		roots := make([]dyadic.Dyadic, sv.NumRoots())
		for i := range roots {
			if werr = s.stop(); werr != nil {
				return
			}
			emit(s.obs, sched.TaskStart, "interval")
			roots[i] = sv.SolveInterval(i)
			emit(s.obs, sched.TaskDone, "interval")
		}
		nd.Roots = roots
	})
	return werr
}

// taskTally counts executed tree-stage tasks per Fig. 3.2 kind.
type taskTally struct {
	computePoly, sort, preInterval, interval atomic.Int64
}

// nodeState carries the per-node synchronization data of the parallel
// driver: the paper's "status data structures corresponding to the
// nodes of the tree ... used to schedule the tasks" (§3.2).
type nodeState struct {
	polyGate  *sched.Gate // children's T matrices → COMPUTEPOLY
	sortGate  *sched.Gate // children's roots → SORT
	readyGate *sched.Gate // {poly done, sort done} → PREINTERVAL fan-out
	m1        tree.Matrix2
	ys        []dyadic.Dyadic
	solver    *interval.Solver
}

// solveParallel runs the second stage as a dependency-driven task graph
// on the pool. Task kinds per node (Fig. 3.2):
//
//	RECURSE      — builds the node state (the skeleton is already built
//	               by tree.Build; the state initialization here is the
//	               residue of the paper's top-down phase)
//	COMPUTEPOLY  — two 2×2 polynomial matrix products, one after the
//	               other, each split into 4 entry tasks
//	SORT         — merge the children's sorted root lists
//	PREINTERVAL  — one task per interleaving-point evaluation
//	INTERVAL     — one task per interval problem
//
// A node is complete when all its INTERVAL tasks are; completion
// signals the parent's SORT gate. COMPUTEPOLY completion signals the
// parent's COMPUTEPOLY gate.
//
// On cancellation or task failure the queue is drained without running
// (sched.Pool semantics): gates stop firing, Wait still returns, and
// the pool's first-failure error is reported instead of the roots.
func (s *solver) solveParallel(seq *remseq.Sequence, root *tree.Node, bound *mp.Int) error {
	pool, opts, ctx, tally := s.pool, s.opts, s.mctx, &s.tally
	n := seq.N
	states := make(map[*tree.Node]*nodeState)
	done := make(chan struct{})

	// RECURSE: allocate states top-down.
	var recurse func(nd *tree.Node)
	recurse = func(nd *tree.Node) {
		states[nd] = &nodeState{}
		if nd.Left != nil {
			recurse(nd.Left)
		}
		if nd.Right != nil {
			recurse(nd.Right)
		}
	}
	recurse(root)

	// nodeDone: node's roots are ready.
	nodeDone := func(nd *tree.Node) {
		if nd.Parent == nil {
			close(done)
			return
		}
		states[nd.Parent].sortGate.Done()
	}

	// polyDone: node's P (and T if applicable) is ready.
	polyDone := func(nd *tree.Node) {
		if nd.Parent != nil {
			if ps := states[nd.Parent]; ps.polyGate != nil {
				ps.polyGate.Done()
			}
		}
		states[nd].readyGate.Done()
	}

	// Wire up each node's gates (bottom-up so gates exist before any
	// task can fire them; no task runs until the pool sees it).
	root.Walk(func(nd *tree.Node) {
		st := states[nd]

		// PREINTERVAL fan-out, then INTERVAL fan-out, once both the
		// polynomial and the merged child roots are available.
		st.readyGate = sched.NewGateTagged(pool, 2, "preinterval", func() {
			st.solver = interval.NewSolver(nd.P, st.ys, bound, opts.Mu, opts.Method, ctx)
			d := st.solver.NumRoots()
			roots := make([]dyadic.Dyadic, d)
			intervalGate := sched.NewGateTagged(pool, d, "gate", func() {
				nd.Roots = roots
				nodeDone(nd)
			})
			preGate := sched.NewGateTagged(pool, st.solver.NumPoints(), "gate", func() {
				for i := 0; i < d; i++ {
					i := i
					pool.SubmitTagged("interval", func() { // INTERVAL task
						tally.interval.Add(1)
						roots[i] = st.solver.SolveInterval(i)
						intervalGate.Done()
					})
				}
			})
			for i := 0; i < st.solver.NumPoints(); i++ {
				i := i
				pool.SubmitTagged("preinterval", func() { // PREINTERVAL task
					tally.preInterval.Add(1)
					st.solver.EvalPoint(i)
					preGate.Done()
				})
			}
		})

		// SORT gate: children's roots.
		nChildren := 0
		if nd.Left != nil {
			nChildren++
		}
		if nd.Right != nil {
			nChildren++
		}
		st.sortGate = sched.NewGateTagged(pool, nChildren, "sort", func() { // SORT task
			tally.sort.Add(1)
			st.ys = mergeRoots(nd)
			st.readyGate.Done()
		})

		// COMPUTEPOLY path: seed tasks (leaves, rightmost spine) are
		// submitted in a second pass below, after all gates exist.
		switch {
		case nd.J == n, nd.IsLeaf():
			// Rightmost spine (P = F_{i-1}, no products) or leaf (T = Ŝ_i).
		default:
			needs := 1 // left child always carries a T here
			if nd.Right != nil {
				needs = 2
			}
			st.polyGate = sched.NewGateTagged(pool, needs, "computepoly", func() {
				// First product: M1 = Ŝ_k · T_left, 4 entry tasks.
				sh := tree.SHat(seq, nd.K)
				tctx := ctx.In(metrics.PhaseTree)
				secondGate := sched.NewGateTagged(pool, 4, "computepoly", func() {
					tally.computePoly.Add(1)
					// Second product (or scalar fold) + exact division.
					if nd.Right == nil {
						t := st.m1.DivExact(tctx, seq.Csq(nd.K-1))
						nd.T = t
						nd.P = t[1][1]
						polyDone(nd)
						return
					}
					divisor := new(mp.Int).MulProfile(tctx.Profile, seq.Csq(nd.K), seq.Csq(nd.K-1))
					prod := new(tree.Matrix2)
					prodGate := sched.NewGateTagged(pool, 4, "computepoly", func() {
						tally.computePoly.Add(1)
						t := prod.DivExact(tctx, divisor)
						nd.T = t
						nd.P = t[1][1]
						polyDone(nd)
					})
					for r := 0; r < 2; r++ {
						for c := 0; c < 2; c++ {
							r, c := r, c
							pool.SubmitTagged("computepoly", func() { // COMPUTEPOLY entry task (2nd product)
								tally.computePoly.Add(1)
								prod[r][c] = tree.MulEntry(tctx, nd.Right.T, &st.m1, r, c)
								prodGate.Done()
							})
						}
					}
				})
				for r := 0; r < 2; r++ {
					for c := 0; c < 2; c++ {
						r, c := r, c
						pool.SubmitTagged("computepoly", func() { // COMPUTEPOLY entry task (1st product)
							tally.computePoly.Add(1)
							st.m1[r][c] = tree.MulEntry(tctx, sh, nd.Left.T, r, c)
							secondGate.Done()
						})
					}
				}
			})
		}
	})

	// Second pass: submit the seed COMPUTEPOLY tasks now that every gate
	// exists (a seed completing mid-wiring could otherwise signal a
	// parent whose gates are not yet constructed).
	root.Walk(func(nd *tree.Node) {
		if nd.J == n || nd.IsLeaf() {
			nd := nd
			pool.SubmitTagged("computepoly", func() { // COMPUTEPOLY seed task
				tally.computePoly.Add(1)
				tree.ComputePoly(seq, ctx, nd)
				polyDone(nd)
			})
		}
	})

	pool.Wait()
	if err := pool.Err(); err != nil {
		// Canceled or failed: the drained queue left gates unfired, so
		// done may never close. The partial node results are abandoned.
		return err
	}
	// Healthy drain: the root's completion closed done inside the last
	// task, strictly before Wait returned.
	<-done
	return nil
}
