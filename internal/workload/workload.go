// Package workload implements the paper's synthetic programs (Section 4):
//
//   - LockLoop: each processor acquires a lock, holds it 50 cycles, and
//     releases, in a tight loop executed Iterations/P times (paper:
//     32000 total acquires);
//   - LockLoopRandomPause: the low-contention variant that wastes a
//     bounded pseudo-random time after each release;
//   - LockLoopWorkRatio: the controlled variant where the work outside
//     the critical section is P times the work inside (± 10%);
//   - BarrierLoop: processors cross a barrier in a tight loop (paper:
//     5000 episodes);
//   - ReductionLoop: each processor executes reductions in a tight loop
//     (paper: 5000), with the zero-traffic magic lock/barrier so the
//     reduction's own communication is isolated;
//   - ReductionLoopImbalanced: the load-imbalance variant.
//
// Each workload builds its own fresh Machine, runs, and reports the
// metrics the paper plots.
package workload

import (
	"coherencesim/internal/constructs"
	"coherencesim/internal/machine"
	"coherencesim/internal/metrics"
	"coherencesim/internal/proto"
	"coherencesim/internal/sim"
	"coherencesim/internal/trace"
)

// LockKind selects the lock implementation (paper labels: tk, MCS, uc;
// then test-and-set with backoff, tas, and test-and-test-and-set, ttas).
type LockKind int

const (
	Ticket LockKind = iota
	MCS
	UpdateConsciousMCS
	TAS
	TTAS
)

func (k LockKind) String() string {
	switch k {
	case Ticket:
		return "tk"
	case MCS:
		return "MCS"
	case UpdateConsciousMCS:
		return "uc"
	case TAS:
		return "tas"
	case TTAS:
		return "ttas"
	}
	return "?"
}

// BarrierKind selects the barrier implementation (paper labels: cb, db, tb).
type BarrierKind int

const (
	Central BarrierKind = iota
	Dissemination
	Tree
)

func (k BarrierKind) String() string {
	switch k {
	case Central:
		return "cb"
	case Dissemination:
		return "db"
	case Tree:
		return "tb"
	}
	return "?"
}

// ReductionKind selects the reduction strategy (paper labels: sr, pr).
type ReductionKind int

const (
	Sequential ReductionKind = iota
	Parallel
)

func (k ReductionKind) String() string {
	switch k {
	case Sequential:
		return "sr"
	case Parallel:
		return "pr"
	}
	return "?"
}

// Params configures a synthetic run.
type Params struct {
	Procs    int
	Protocol proto.Protocol
	// Iterations is the *total* count across processors for lock loops
	// (paper: 32000) and the per-machine episode count for barrier and
	// reduction loops (paper: 5000).
	Iterations int
	// HoldCycles is the critical-section length for lock loops (paper: 50).
	HoldCycles sim.Time
	// MetricsInterval, when positive, attaches a metrics registry to the
	// run's machine with the given sampling interval (simulated cycles per
	// time-series frame); the snapshot comes back in Result.Metrics.
	// Metrics are keyed purely to simulated time, so enabling them never
	// changes the simulated outcome.
	MetricsInterval sim.Time
	// Breakdown attaches a coherence-transaction tracer to the run's
	// machine; the stall-attribution breakdown comes back in
	// Result.Breakdown. Like metrics, tracing is keyed purely to
	// simulated time and never changes the simulated outcome.
	Breakdown bool
	// Tune, if set, adjusts the machine configuration before
	// construction (ablation studies: CU threshold, retention, spin
	// polling, network parameters).
	Tune func(*machine.Config)
}

// acquireMachine is where every run's machine comes from: the shared
// reuse pool. Only the fresh-versus-pooled identity test reassigns it.
var acquireMachine = machine.Acquire

// newMachine obtains the machine for a run, applying any tuning hook.
// Machines come from the shared reuse pool (machine.Acquire); every
// workload releases its machine once the run's result is assembled.
func (p Params) newMachine() *machine.Machine {
	cfg := machine.DefaultConfig(p.Protocol, p.Procs)
	if p.MetricsInterval > 0 {
		cfg.Metrics = metrics.New(p.MetricsInterval)
	}
	if p.Breakdown {
		cfg.Txn = trace.NewTracer(p.Procs, 0)
	}
	if p.Tune != nil {
		p.Tune(&cfg)
	}
	return acquireMachine(cfg)
}

// DefaultLockParams returns the paper's figure 8 parameters.
func DefaultLockParams(pr proto.Protocol, procs int) Params {
	return Params{Procs: procs, Protocol: pr, Iterations: 32000, HoldCycles: 50}
}

// DefaultBarrierParams returns the paper's figure 11 parameters.
func DefaultBarrierParams(pr proto.Protocol, procs int) Params {
	return Params{Procs: procs, Protocol: pr, Iterations: 5000}
}

// DefaultReductionParams returns the paper's figure 14 parameters.
func DefaultReductionParams(pr proto.Protocol, procs int) Params {
	return Params{Procs: procs, Protocol: pr, Iterations: 5000}
}

// NewLock builds a lock of kind k on m: the one table from LockKind to
// a lock, for the synthetic loops and the application kernels alike.
func NewLock(m *machine.Machine, k LockKind) constructs.Lock {
	switch k {
	case Ticket:
		return constructs.NewTicketLock(m, "lock")
	case MCS:
		return constructs.NewMCSLock(m, "lock", false)
	case UpdateConsciousMCS:
		return constructs.NewMCSLock(m, "lock", true)
	case TAS:
		return constructs.NewTASLock(m, "lock")
	case TTAS:
		return constructs.NewTTASLock(m, "lock")
	}
	panic("workload: unknown lock kind")
}

// NewBarrier builds a barrier of kind k on m.
func NewBarrier(m *machine.Machine, k BarrierKind) constructs.Barrier {
	switch k {
	case Central:
		return constructs.NewCentralBarrier(m, "barrier")
	case Dissemination:
		return constructs.NewDisseminationBarrier(m, "barrier")
	case Tree:
		return constructs.NewTreeBarrier(m, "barrier")
	}
	panic("workload: unknown barrier kind")
}

// LockResult reports a lock-loop run. AvgLatency is the paper's metric:
// execution time divided by total acquires, minus the hold time.
type LockResult struct {
	machine.Result
	Acquires   int
	AvgLatency float64
}

func lockLatency(res machine.Result, acquires int, hold sim.Time) LockResult {
	avg := float64(res.Cycles)/float64(acquires) - float64(hold)
	return LockResult{Result: res, Acquires: acquires, AvgLatency: avg}
}

// LockLoop runs the paper's lock synthetic program.
func LockLoop(p Params, kind LockKind) LockResult {
	m := p.newMachine()
	defer m.Release()
	return LockLoopOn(m, NewLock(m, kind), p)
}

// LockLoopOn runs the lock synthetic program over a lock on a machine
// the caller built (with p.Procs processors) and still owns afterwards —
// for callers that inspect the machine once the run is over.
func LockLoopOn(m *machine.Machine, l constructs.Lock, p Params) LockResult {
	iters := p.Iterations / p.Procs
	res := m.RunProgram(&lockLoopProgram{l: l, iters: iters, hold: p.HoldCycles})
	return lockLatency(res, iters*p.Procs, p.HoldCycles)
}

// LockLoopRandomPause is the low-contention variant: after each release
// the processor wastes a bounded pseudo-random time (up to four hold
// times) before trying again.
func LockLoopRandomPause(p Params, kind LockKind) LockResult {
	m := p.newMachine()
	defer m.Release()
	l := NewLock(m, kind)
	iters := p.Iterations / p.Procs
	res := m.RunProgram(&lockLoopPauseProgram{l: l, iters: iters, hold: p.HoldCycles})
	return lockLatency(res, iters*p.Procs, p.HoldCycles)
}

// LockLoopWorkRatio is the controlled variant: the work outside the
// critical section is P times the work inside, within ±10%.
func LockLoopWorkRatio(p Params, kind LockKind) LockResult {
	m := p.newMachine()
	defer m.Release()
	l := NewLock(m, kind)
	iters := p.Iterations / p.Procs
	res := m.RunProgram(&lockLoopRatioProgram{
		l: l, iters: iters, hold: p.HoldCycles,
		outside: int64(p.HoldCycles) * int64(p.Procs),
	})
	return lockLatency(res, iters*p.Procs, p.HoldCycles)
}

// BarrierResult reports a barrier-loop run. AvgLatency is execution time
// divided by the episode count.
type BarrierResult struct {
	machine.Result
	Episodes   int
	AvgLatency float64
}

func barrierResult(res machine.Result, episodes int) BarrierResult {
	return BarrierResult{Result: res, Episodes: episodes, AvgLatency: float64(res.Cycles) / float64(episodes)}
}

// BarrierLoop runs the paper's barrier synthetic program.
func BarrierLoop(p Params, kind BarrierKind) BarrierResult {
	m := p.newMachine()
	defer m.Release()
	b := NewBarrier(m, kind)
	return barrierResult(m.RunProgram(&barrierLoopProgram{b: b, iters: p.Iterations}), p.Iterations)
}

// ReductionResult reports a reduction-loop run. AvgLatency is execution
// time divided by the reduction count.
type ReductionResult struct {
	machine.Result
	Reductions int
	AvgLatency float64
}

func reductionResult(res machine.Result, reductions int) ReductionResult {
	return ReductionResult{Result: res, Reductions: reductions, AvgLatency: float64(res.Cycles) / float64(reductions)}
}

// localValue is the per-episode contribution of a processor: strictly
// increasing across episodes (so every episode really updates the global
// maximum) with a processor-dependent component that varies the winner.
func localValue(ep, id, procs int) uint32 {
	return uint32(ep)*uint32(2*procs) + uint32((id*7+ep)%procs)
}

// ReductionLoop runs the paper's reduction synthetic program: Iterations
// tightly synchronized reductions using zero-traffic magic sync. After
// each reduction every processor reads the global result (the figures'
// "code that uses max").
func ReductionLoop(p Params, kind ReductionKind) ReductionResult {
	m := p.newMachine()
	defer m.Release()
	red := NewReducer(m, kind)
	return reductionResult(m.RunProgram(&reductionLoopProgram{red: red, iters: p.Iterations, procs: p.Procs}), p.Iterations)
}

// ReductionLoopImbalanced is the load-imbalance variant: processors
// spend a pseudo-random time producing their local value, reducing lock
// contention in the parallel strategy.
func ReductionLoopImbalanced(p Params, kind ReductionKind) ReductionResult {
	m := p.newMachine()
	defer m.Release()
	red := NewReducer(m, kind)
	return reductionResult(m.RunProgram(&reductionImbalProgram{red: red, iters: p.Iterations, procs: p.Procs}), p.Iterations)
}

// NewReducer builds a reducer of kind k on m over zero-traffic magic
// synchronization.
func NewReducer(m *machine.Machine, k ReductionKind) constructs.Reducer {
	switch k {
	case Parallel:
		return constructs.NewParallelReducer(m, "red", m.NewMagicLock(), m.NewMagicBarrier())
	case Sequential:
		return constructs.NewSequentialReducer(m, "red", m.NewMagicBarrier())
	}
	panic("workload: unknown reduction kind")
}
