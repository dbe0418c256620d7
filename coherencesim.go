// Package coherencesim is an execution-driven simulator of a DASH-like
// CC-NUMA multiprocessor built to reproduce Bianchini, Carrera &
// Kontothanassis, "The Interaction of Parallel Programming Constructs
// and Coherence Protocols" (PPoPP 1997).
//
// It models a 32-node (configurable 1-64) machine — processors with
// 4-entry write buffers, 64-KB direct-mapped caches with 64-byte blocks,
// per-node memory with a full-map directory, and a wormhole-routed 2D
// mesh — under three coherence protocols: write-invalidate (WI), pure
// update (PU), and competitive update (CU). On top of the machine it
// provides the paper's parallel programming constructs (ticket, MCS, and
// update-conscious MCS locks; centralized, dissemination, and tree
// barriers; parallel and sequential reductions), the paper's synthetic
// workloads, and drivers that regenerate every figure of the paper's
// evaluation, including the miss and update-message classification the
// paper uses as its central metric.
//
// Quick start:
//
//	cfg := coherencesim.DefaultConfig(coherencesim.PU, 8)
//	m := coherencesim.NewMachine(cfg)
//	lock := coherencesim.NewTicketLock(m, "L")
//	counter := m.Alloc("counter", 4, 0)
//	type (
//		Proc  = coherencesim.Proc
//		Frame = coherencesim.Frame
//	)
//	res := m.RunProgram(coherencesim.Steps{ // register I0 counts iterations
//		func(p *Proc, f *Frame) coherencesim.OpStatus {
//			if f.I0 == 100 {
//				f.PC = 4 // past the last stage: done
//				return coherencesim.OpDone
//			}
//			return lock.FAcquire(p)
//		},
//		func(p *Proc, f *Frame) coherencesim.OpStatus { return p.FRead(counter) },
//		func(p *Proc, f *Frame) coherencesim.OpStatus { return p.FWrite(counter, p.Ret()+1) },
//		func(p *Proc, f *Frame) coherencesim.OpStatus {
//			f.I0++
//			f.PC = 0 // back to the loop head once the release completes
//			return lock.FRelease(p)
//		},
//	})
//	fmt.Println(res.Cycles, res.Updates.Useful())
//
// The package is a facade over the internal implementation packages;
// everything needed to build and measure workloads is re-exported here.
package coherencesim

import (
	"coherencesim/internal/apps"
	"coherencesim/internal/classify"
	"coherencesim/internal/constructs"
	"coherencesim/internal/experiments"
	"coherencesim/internal/machine"
	"coherencesim/internal/metrics"
	"coherencesim/internal/proto"
	"coherencesim/internal/runner"
	"coherencesim/internal/trace"
	"coherencesim/internal/workload"
)

// Protocol selects the coherence protocol of a simulated machine.
type Protocol = proto.Protocol

// The three protocols the paper studies.
const (
	WI = proto.WI // write-invalidate (DASH-like, release consistency)
	PU = proto.PU // pure update (write-through with retention)
	CU = proto.CU // competitive update (threshold-4 self-invalidation)
)

// Machine is a simulated multiprocessor; Proc is one simulated processor.
type (
	Machine = machine.Machine
	Proc    = machine.Proc
	Config  = machine.Config
	Result  = machine.Result
	Addr    = machine.Addr
)

// NewMachine builds a simulated machine.
func NewMachine(cfg Config) *Machine { return machine.New(cfg) }

// AcquireMachine returns a machine configured per cfg from the shared
// reuse pool — a structurally compatible idle machine reset to cfg when
// one is available, else a fresh one. Pair with Machine.Release when
// the run's results have been read; pooled runs are byte-identical to
// fresh-machine runs.
var AcquireMachine = machine.Acquire

// DefaultConfig returns the paper's machine parameters for a protocol
// and processor count.
func DefaultConfig(p Protocol, procs int) Config {
	return machine.DefaultConfig(p, procs)
}

// Workload API: a Program is a resumable state machine, dispatched
// inline by the event loop (no goroutine per simulated processor). Each
// processor runs the Program's Step as its root activation; blocking
// operations return OpBlocked and the processor is re-entered in place
// when the machine wakes it. Steps builds a Program from a flat list of
// stages, one operation each. Machine.RunProgram runs one; a second
// RunProgram call on the same machine continues the same simulation
// where the first left off.
type (
	Program  = machine.Program
	Steps    = machine.Steps
	Frame    = machine.Frame
	StepFunc = machine.StepFunc
	OpStatus = machine.OpStatus
)

// Step results (see Program).
const (
	OpDone    = machine.OpDone
	OpBlocked = machine.OpBlocked
	OpCalled  = machine.OpCalled
)

// Synchronization construct interfaces and implementations (Section 2 of
// the paper). MagicLock and MagicBarrier are the zero-traffic primitives
// used to isolate reduction communication.
type (
	Lock                 = constructs.Lock
	Barrier              = constructs.Barrier
	Reducer              = constructs.Reducer
	TicketLock           = constructs.TicketLock
	MCSLock              = constructs.MCSLock
	TASLock              = constructs.TASLock
	TTASLock             = constructs.TTASLock
	CentralBarrier       = constructs.CentralBarrier
	DisseminationBarrier = constructs.DisseminationBarrier
	TreeBarrier          = constructs.TreeBarrier
	ParallelReducer      = constructs.ParallelReducer
	SequentialReducer    = constructs.SequentialReducer
	MagicLock            = machine.MagicLock
	MagicBarrier         = machine.MagicBarrier
)

// NewTicketLock allocates a centralized ticket lock on m.
func NewTicketLock(m *Machine, name string) *TicketLock {
	return constructs.NewTicketLock(m, name)
}

// NewMCSLock allocates an MCS queue lock; updateConscious selects the
// paper's flush-augmented variant.
func NewMCSLock(m *Machine, name string, updateConscious bool) *MCSLock {
	return constructs.NewMCSLock(m, name, updateConscious)
}

// NewTASLock allocates a test-and-set lock with exponential backoff
// (library extension beyond the paper's candidates).
func NewTASLock(m *Machine, name string) *TASLock {
	return constructs.NewTASLock(m, name)
}

// NewTTASLock allocates a test-and-test-and-set lock (library extension
// beyond the paper's candidates).
func NewTTASLock(m *Machine, name string) *TTASLock {
	return constructs.NewTTASLock(m, name)
}

// NewCentralBarrier allocates a sense-reversing centralized barrier.
func NewCentralBarrier(m *Machine, name string) *CentralBarrier {
	return constructs.NewCentralBarrier(m, name)
}

// NewDisseminationBarrier allocates a dissemination barrier.
func NewDisseminationBarrier(m *Machine, name string) *DisseminationBarrier {
	return constructs.NewDisseminationBarrier(m, name)
}

// NewTreeBarrier allocates a 4-ary arrival-tree barrier.
func NewTreeBarrier(m *Machine, name string) *TreeBarrier {
	return constructs.NewTreeBarrier(m, name)
}

// NewParallelReducer allocates a lock-based parallel max-reducer.
func NewParallelReducer(m *Machine, name string, l Lock, b Barrier) *ParallelReducer {
	return constructs.NewParallelReducer(m, name, l, b)
}

// NewSequentialReducer allocates a combining sequential max-reducer.
func NewSequentialReducer(m *Machine, name string, b Barrier) *SequentialReducer {
	return constructs.NewSequentialReducer(m, name, b)
}

// Communication classification (Section 3.2 of the paper).
type (
	MissCounts   = classify.MissCounts
	UpdateCounts = classify.UpdateCounts
	MissKind     = classify.MissKind
	UpdateKind   = classify.UpdateKind
)

// Miss categories.
const (
	MissCold     = classify.MissCold
	MissTrue     = classify.MissTrue
	MissFalse    = classify.MissFalse
	MissEviction = classify.MissEviction
	MissDrop     = classify.MissDrop
	MissUpgrade  = classify.MissUpgrade
)

// Update-message categories.
const (
	UpdTrue          = classify.UpdTrue
	UpdFalse         = classify.UpdFalse
	UpdProliferation = classify.UpdProliferation
	UpdReplacement   = classify.UpdReplacement
	UpdTermination   = classify.UpdTermination
	UpdDrop          = classify.UpdDrop
)

// Synthetic workloads (Section 4 of the paper).
type (
	WorkloadParams  = workload.Params
	LockKind        = workload.LockKind
	BarrierKind     = workload.BarrierKind
	ReductionKind   = workload.ReductionKind
	LockResult      = workload.LockResult
	BarrierResult   = workload.BarrierResult
	ReductionResult = workload.ReductionResult
)

// Workload construct selectors (paper bar labels).
const (
	Ticket             = workload.Ticket
	MCS                = workload.MCS
	UpdateConsciousMCS = workload.UpdateConsciousMCS
	Central            = workload.Central
	Dissemination      = workload.Dissemination
	Tree               = workload.Tree
	Sequential         = workload.Sequential
	Parallel           = workload.Parallel
)

// Workload drivers.
var (
	LockLoop      = workload.LockLoop
	BarrierLoop   = workload.BarrierLoop
	ReductionLoop = workload.ReductionLoop
)

// LockLoopRandomPause is the Section 4.1 low-contention lock loop: after
// each release a processor waits a bounded pseudo-random time (up to
// four hold times) before trying again.
func LockLoopRandomPause(p WorkloadParams, kind LockKind) LockResult {
	return workload.RunLockLoop(p, kind, workload.RandomPause)
}

// LockLoopWorkRatio is the Section 4.1 controlled lock loop: the work
// outside the critical section is P times the work inside, within ±10%.
func LockLoopWorkRatio(p WorkloadParams, kind LockKind) LockResult {
	return workload.RunLockLoop(p, kind, workload.WorkRatio)
}

// ReductionLoopImbalanced is the Section 4.3 load-imbalance reduction
// loop: processors spend a pseudo-random time producing their local
// value.
func ReductionLoopImbalanced(p WorkloadParams, kind ReductionKind) ReductionResult {
	return workload.RunReductionLoop(p, kind, true)
}

// Default workload parameter builders (paper scales).
var (
	DefaultLockParams      = workload.DefaultLockParams
	DefaultBarrierParams   = workload.DefaultBarrierParams
	DefaultReductionParams = workload.DefaultReductionParams
)

// Experiment drivers regenerating the paper's figures.
type (
	ExperimentOptions = experiments.Options
	LatencySweep      = experiments.LatencySweep
	MissBreakdown     = experiments.MissBreakdown
	UpdateBreakdown   = experiments.UpdateBreakdown
)

// Experiment option presets.
var (
	PaperScale = experiments.Defaults
	QuickScale = experiments.Quick
)

// RunnerPool is the worker pool that fans independent simulations of an
// experiment sweep across OS threads; attach one to
// ExperimentOptions.Runner. Result assembly stays deterministic, so the
// rendered figures are byte-identical at any worker count.
// RunnerSnapshot is the pool's progress counter (jobs done, aggregate
// simulated cycles, wall time).
type (
	RunnerPool     = runner.Pool
	RunnerSnapshot = runner.Snapshot
)

// NewRunnerPool builds a simulation worker pool. workers <= 0 selects
// GOMAXPROCS; 1 keeps every job inline on the calling goroutine.
func NewRunnerPool(workers int) *RunnerPool { return runner.New(workers) }

// Per-figure drivers.
var (
	Figure8  = experiments.Figure8
	Figure9  = experiments.Figure9
	Figure10 = experiments.Figure10
	Figure11 = experiments.Figure11
	Figure12 = experiments.Figure12
	Figure13 = experiments.Figure13
	Figure14 = experiments.Figure14
	Figure15 = experiments.Figure15
	Figure16 = experiments.Figure16

	LockVariantRandomPause     = experiments.LockVariantRandomPause
	LockVariantWorkRatio       = experiments.LockVariantWorkRatio
	ReductionVariantImbalanced = experiments.ReductionVariantImbalanced

	AblateCUThreshold = experiments.AblateCUThreshold
	AblatePURetention = experiments.AblatePURetention
	AblateSpinModel   = experiments.AblateSpinModel

	// ExtendedLockSweep measures all five lock algorithms (including the
	// TAS/TTAS extensions) under all three protocols.
	ExtendedLockSweep = experiments.ExtendedLockSweep

	// AnalyzeLockContention reports per-node traffic concentration for
	// the centralized lock (the paper's resource-contention argument);
	// AnalyzeLockContentions runs it for several protocols through the
	// runner pool.
	AnalyzeLockContention  = experiments.AnalyzeLockContention
	AnalyzeLockContentions = experiments.AnalyzeLockContentions
)

// Trace support: a TraceLog on Config.Trace records every processor
// operation; a NewTimelineTracer on Config.Txn keeps what WriteTimeline
// writes as Perfetto JSON (every stall with its reason and releasing
// transaction, and the log's atomics, fences, flushes, spin wake-ups).
type (
	TraceLog  = trace.Log
	TxnTracer = trace.Tracer
)

// NewTraceLog creates an operation trace ring buffer.
func NewTraceLog(capacity int) *TraceLog { return trace.NewLog(capacity) }

// NewTimelineTracer builds a tracer that keeps what WriteTimeline writes.
func NewTimelineTracer(procs int) *TxnTracer { return trace.NewTracer(procs, 0).StoreRecords() }

// WriteTimeline writes a timeline tracer's run; the log may be nil.
var WriteTimeline = trace.WriteTimeline

// Observability layer: attach a MetricsRegistry to Config.Metrics to
// collect named counters, latency/fan-out histograms, and (with a
// positive sampling interval) per-interval time series, all keyed to
// simulated time; the run's MetricsSnapshot comes back in
// Result.Metrics. MetricsCollector assembles labeled snapshots into a
// MetricsReport for JSON/CSV export.
type (
	MetricsRegistry  = metrics.Registry
	MetricsSnapshot  = metrics.Snapshot
	MetricsCollector = metrics.Collector
	MetricsReport    = metrics.Report
)

// NewMetricsRegistry builds an observability registry; interval is the
// time-series sampling period in simulated cycles (0 disables series).
func NewMetricsRegistry(interval uint64) *MetricsRegistry {
	return metrics.New(interval)
}

// NewMetricsCollector builds a snapshot collector whose runs sample at
// the given interval.
func NewMetricsCollector(interval uint64) *MetricsCollector {
	return metrics.NewCollector(interval)
}

// Histogram names the built-in constructs record latency under.
const (
	HistLockAcquire    = constructs.HistLockAcquire
	HistBarrierEpisode = constructs.HistBarrierEpisode
	HistReduction      = constructs.HistReduction
)

// Application kernels (lock-, barrier-, and reduction-bound programs
// distilling the workload classes the paper motivates) and the
// construct-choice comparisons over them.
type (
	AppResult       = apps.Result
	WorkQueueParams = apps.WorkQueueParams
	JacobiParams    = apps.JacobiParams
	NBodyParams     = apps.NBodyParams
	AppComparison   = experiments.AppComparison
)

// Application kernel drivers and comparisons.
var (
	WorkQueue = apps.WorkQueue
	Jacobi    = apps.Jacobi
	NBodyMax  = apps.NBodyMax

	CompareWorkQueue = experiments.CompareWorkQueue
	CompareJacobi    = experiments.CompareJacobi
	CompareNBody     = experiments.CompareNBody
)
