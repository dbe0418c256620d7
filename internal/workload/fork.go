package workload

// Two-phase runs. A synthetic run splits naturally into a warm-up
// prefix (cold caches, directory filling, the constructs' steady state
// forming) and a measurement-bearing remainder. The TwoPhase* runners
// execute both phases back to back on one machine, reporting cumulative
// figures over both; they are what a point with WarmFork set runs, and
// only the frozen bench/ harness sets it (experiments.Options.Forks).
//
// WarmLockLoop is the same split as a reusable value whose Run is
// TwoPhaseLockLoop. It does not fork a machine.Snapshot: a fork replays
// its source's programs, and a lock program drives a lock object built
// on the source machine, which no other machine may run (Snapshot
// refuses a machine a construct was built on).
//
// A two-phase run is deterministic but not byte-identical to the
// single-phase equivalent (the phase boundary re-synchronizes all
// processors and finalizes in-flight classification), so it is strictly
// opt-in and default runs are untouched.

import "coherencesim/internal/constructs"

// LockVariant selects the lock-loop flavour a two-phase run covers.
type LockVariant int

const (
	PlainLock   LockVariant = iota // LockLoop
	RandomPause                    // LockLoopRandomPause
	WorkRatio                      // LockLoopWorkRatio
)

// lockProgram builds the variant's program for iters per-processor
// iterations.
func (v LockVariant) program(p Params, l constructs.Lock, iters int) Program {
	switch v {
	case PlainLock:
		return &lockLoopProgram{l: l, iters: iters, hold: p.HoldCycles}
	case RandomPause:
		return &lockLoopPauseProgram{l: l, iters: iters, hold: p.HoldCycles}
	case WorkRatio:
		return &lockLoopRatioProgram{
			l: l, iters: iters, hold: p.HoldCycles,
			outside: int64(p.HoldCycles) * int64(p.Procs),
		}
	}
	panic("workload: unknown lock variant")
}

// warmSplit divides a count into the warmed prefix and the remainder.
func warmSplit(n int) (warm, rest int) {
	warm = n / 2
	return warm, n - warm
}

// reductionProgram builds the (im)balanced reduction program starting
// at episode base.
func reductionProgram(p Params, imbalanced bool, red constructs.Reducer, iters, base int) Program {
	if imbalanced {
		return &reductionImbalProgram{red: red, iters: iters, procs: p.Procs, base: base}
	}
	return &reductionLoopProgram{red: red, iters: iters, procs: p.Procs, base: base}
}

// TwoPhaseLockLoop runs the (p, kind, v) lock loop as warm-up and
// remainder on one machine.
func TwoPhaseLockLoop(p Params, kind LockKind, v LockVariant) LockResult {
	warm, rest := warmSplit(p.Iterations / p.Procs)
	m := p.newMachine()
	defer m.Release()
	l := NewLock(m, kind)
	m.RunProgram(v.program(p, l, warm))
	res := m.RunProgram(v.program(p, l, rest))
	return lockLatency(res, (warm+rest)*p.Procs, p.HoldCycles)
}

// TwoPhaseBarrierLoop runs the (p, kind) barrier loop as warm-up and
// remainder on one machine.
func TwoPhaseBarrierLoop(p Params, kind BarrierKind) BarrierResult {
	warm, rest := warmSplit(p.Iterations)
	m := p.newMachine()
	defer m.Release()
	b := NewBarrier(m, kind)
	m.RunProgram(&barrierLoopProgram{b: b, iters: warm})
	res := m.RunProgram(&barrierLoopProgram{b: b, iters: rest})
	return barrierResult(res, warm+rest)
}

// TwoPhaseReductionLoop runs the (p, kind) reduction loop — the
// imbalanced variant when imbalanced is set — as warm-up and remainder
// on one machine.
func TwoPhaseReductionLoop(p Params, kind ReductionKind, imbalanced bool) ReductionResult {
	warm, rest := warmSplit(p.Iterations)
	m := p.newMachine()
	defer m.Release()
	red := NewReducer(m, kind)
	m.RunProgram(reductionProgram(p, imbalanced, red, warm, 0))
	res := m.RunProgram(reductionProgram(p, imbalanced, red, rest, warm))
	return reductionResult(res, warm+rest)
}

// WarmLock is a lock loop's two-phase recipe: the (p, kind, v) it runs.
type WarmLock struct {
	p    Params
	kind LockKind
	v    LockVariant
}

// WarmLockLoop records the (p, kind, v) lock loop's two-phase recipe.
func WarmLockLoop(p Params, kind LockKind, v LockVariant) *WarmLock {
	return &WarmLock{p: p, kind: kind, v: v}
}

// Run executes the recipe on a fresh machine, returning the cumulative
// result over both phases.
func (w *WarmLock) Run() LockResult {
	return TwoPhaseLockLoop(w.p, w.kind, w.v)
}
