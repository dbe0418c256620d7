// Package workload implements the paper's synthetic programs (Section 4):
//
//   - RunLockLoop: each processor acquires a lock, holds it 50 cycles,
//     and releases, in a tight loop executed Iterations/P times (paper:
//     32000 total acquires); the RandomPause variant wastes a bounded
//     pseudo-random time after each release (low contention), the
//     WorkRatio one works P times the hold time (± 10%) outside;
//   - BarrierLoop: processors cross a barrier in a tight loop (paper:
//     5000 episodes);
//   - RunReductionLoop: each processor executes reductions in a tight
//     loop (paper: 5000), with the zero-traffic magic lock/barrier so
//     the reduction's own communication is isolated, optionally with
//     load imbalance;
//   - PrivateRewriteLoop: the fork/join access pattern PU's private-block
//     retention targets (the retention ablation).
//
// Each workload builds its own fresh Machine, runs, and reports the
// metrics the paper plots.
package workload

import (
	"fmt"

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
	// NodeLoad reads each node's network-interface flits and memory busy
	// cycles off the machine after the run into Result.Nodes (the
	// contention study). Reading counters never changes the outcome.
	NodeLoad bool
	// Tune, if set, adjusts the machine configuration before construction.
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

// run executes prog on m, the run's machine, and adds the per-node
// loads when p asks for them.
func (p Params) run(m *machine.Machine, prog Program) machine.Result {
	res := m.RunProgram(prog)
	if p.NodeLoad {
		res.Nodes = m.NodeLoads()
	}
	return res
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

// RunLockLoop runs the paper's lock synthetic program in variant v.
func RunLockLoop(p Params, kind LockKind, v LockVariant) LockResult {
	m := p.newMachine()
	defer m.Release()
	iters := p.Iterations / p.Procs
	res := p.run(m, v.program(p, NewLock(m, kind), iters))
	return lockLatency(res, iters*p.Procs, p.HoldCycles)
}

// LockLoop runs the paper's lock synthetic program.
func LockLoop(p Params, kind LockKind) LockResult { return RunLockLoop(p, kind, PlainLock) }

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
	return barrierResult(p.run(m, &barrierLoopProgram{b: b, iters: p.Iterations}), p.Iterations)
}

// PrivateRewriteLoop runs the access pattern PU's private-block
// retention targets: fork/join-style data that is private to one
// processor during computation and read by others only at the end.
// Each of Iterations phases ends at a magic barrier, so the result is
// a BarrierResult over the phases. With retention the first
// write-through converts the block to locally writable and every later
// store is free; without it (and under the write-through protocol
// generally) every store travels to the home. Once any other processor
// caches a block, retention is dead for that block under PU — copies
// are never dropped — which is why truly shared data sees no benefit.
func PrivateRewriteLoop(p Params) BarrierResult {
	m := p.newMachine()
	defer m.Release()
	own := make([]machine.Addr, p.Procs)
	for i := range own {
		own[i] = m.Alloc(fmt.Sprintf("priv%d", i), 64, i)
	}
	prog := &privateRewriteProgram{own: own, b: m.NewMagicBarrier(), phases: p.Iterations}
	return barrierResult(p.run(m, prog), p.Iterations)
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

// RunReductionLoop runs the paper's reduction synthetic program: Iterations
// tightly synchronized reductions using zero-traffic magic sync. After
// each reduction every processor reads the global result (the figures'
// "code that uses max"). imbalanced selects the load-imbalance variant.
func RunReductionLoop(p Params, kind ReductionKind, imbalanced bool) ReductionResult {
	m := p.newMachine()
	defer m.Release()
	res := p.run(m, reductionProgram(p, imbalanced, NewReducer(m, kind), p.Iterations, 0))
	return reductionResult(res, p.Iterations)
}

// ReductionLoop runs the paper's reduction synthetic program.
func ReductionLoop(p Params, kind ReductionKind) ReductionResult {
	return RunReductionLoop(p, kind, false)
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
