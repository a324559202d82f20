package server

import (
	"errors"
	"math"
	"time"

	"realroots/internal/core"
	"realroots/internal/sched"
	"realroots/internal/telemetry"
	"realroots/internal/trace"
)

// Post-solve observability: every flight-leader solve ends here, where
// the recorded trace is condensed into the paper's quantities
// (parallel efficiency, serial fraction, per-phase walls), handed with
// the solve's cost to the leader's request record (which puts it to the
// tail sampler and charges the tenant), and folded into the EWMAs the
// admission charge learns from.

// EWMA and clamp tuning for the learned admission corrections.
const (
	// ewmaAlpha is the new-observation weight: the correction reflects
	// roughly the last 1/alpha solves.
	ewmaAlpha = 0.2
	// corrMin/corrMax clamp the combined admission correction so a
	// burst of outlier solves can neither swing admission wide open
	// nor slam it shut.
	corrMin = 0.25
	corrMax = 4.0
)

// observeSolve digests one completed flight-leader solve. It runs on
// both the success and error paths (error traces are exactly the ones
// worth retaining), after the solver has fully stopped — the tracer is
// quiescent and safe to read.
func (s *Server) observeSolve(tracer *trace.Tracer, p solveParams, start time.Time, elapsed time.Duration, bitOps int64, err error) {
	outcome := outcomeFor(err)
	if err == nil && p.estimate > 0 && bitOps > 0 {
		s.updateEWMA(&s.learnedRatio, float64(bitOps)/float64(p.estimate))
	}

	led := telemetry.LedSolve{
		Start: start, Elapsed: elapsed, BitOps: bitOps, Outcome: outcome,
		Workers: p.workers, Tracer: tracer, Forced: p.forceTrace,
	}
	if tracer != nil {
		s.spanOverhead.Add(float64(tracer.SpanCount()+tracer.DroppedSpans()) * s.spanCost)
		sum := tracer.Summarize()
		led.Efficiency, led.SerialFraction = sum.Efficiency(p.workers), sum.SerialFraction
		if sum.Wall > 0 {
			s.serialFrac.Store(sum.SerialFraction)
			if p.workers > 1 {
				s.parEff.Store(led.Efficiency)
				if err == nil {
					s.updateEWMA(&s.learnedEff, led.Efficiency)
				}
			}
		}
		for _, ph := range sum.Phases {
			s.phaseHist.With(ph.Name).Observe(ph.Wall.Seconds(), p.requestID)
		}
	}

	// The leader's record is charged with the solve even when it failed
	// (the wall time and bit ops were spent either way), and the tail
	// sampler, which must see every traced solve for its rolling
	// latency quantile, decides whether the record keeps the trace.
	if reason := p.tracker.Led(led); reason != "" {
		s.traceKept.Add(reason, 1)
	}
}

// outcomeFor maps a solver error to the telemetry outcome taxonomy the
// sampler and the retained-trace metadata use.
func outcomeFor(err error) telemetry.Outcome {
	var pe *sched.PanicError
	switch {
	case err == nil:
		return telemetry.OutcomeOK
	case errors.Is(err, core.ErrBudgetExceeded):
		return telemetry.OutcomeBudget
	case errors.Is(err, core.ErrDeadline):
		return telemetry.OutcomeDeadline
	case errors.Is(err, core.ErrCanceled):
		return telemetry.OutcomeCanceled
	case errors.As(err, &pe):
		return telemetry.OutcomePanic
	default:
		return telemetry.OutcomeError
	}
}

// updateEWMA folds one observation into a learned correction,
// discarding non-finite observations (a zero estimate or a pathological
// trace must not poison the filter).
func (s *Server) updateEWMA(f *telemetry.Float64, obs float64) {
	if math.IsNaN(obs) || math.IsInf(obs, 0) || obs <= 0 {
		return
	}
	f.Store((1-ewmaAlpha)*f.Load() + ewmaAlpha*obs)
}

// chargedEstimate corrects the static §4 model estimate by measured
// reality before charging it against the in-flight budget: the learned
// measured/estimated bit-ops ratio fixes systematic model bias, and
// for parallel requests the learned efficiency inflates the charge
// when solves parallelize worse than assumed (a low-efficiency solve
// holds its slot longer, so it effectively costs more admission
// headroom). The combined correction is clamped to [corrMin, corrMax];
// responses still report the uncorrected model estimate.
func (s *Server) chargedEstimate(estimate int64, workers int) int64 {
	corr := s.learnedRatio.Load()
	if workers > 1 {
		if eff := s.learnedEff.Load(); eff > 0 {
			corr /= math.Max(eff, corrMin)
		}
	}
	corr = math.Min(math.Max(corr, corrMin), corrMax)
	charged := int64(float64(estimate) * corr)
	if charged < 1 {
		charged = 1
	}
	return charged
}
