package machine

import (
	"fmt"
	"math/rand"

	"coherencesim/internal/cache"
	"coherencesim/internal/metrics"
	"coherencesim/internal/sim"
	"coherencesim/internal/trace"
)

// waitReason says what a stalled processor is waiting for, so wake
// sources never resume a processor parked on something else.
type waitReason int

const (
	waitNone waitReason = iota
	waitRead
	waitWBSpace
	waitFence
	waitSpin
	waitAtomic
	waitSync
	waitFlushWB
)

// Phase tags the synchronization construct a processor is currently
// executing, so stall attribution can separate lock waits from barrier
// waits in the paper-style overhead breakdowns. Constructs bracket
// their acquire/release/wait bodies with BeginPhase/EndPhase; phases
// nest (an unlock's fence inside a barrier episode attributes to the
// innermost tag).
type Phase int

const (
	_            Phase = iota // the zero value tags nothing
	PhaseLock                 // inside a lock acquire/release
	PhaseBarrier              // inside a barrier episode
)

// timelineName labels a stall interval for the exported timeline.
func (r waitReason) timelineName() string {
	switch r {
	case waitRead:
		return "read-stall"
	case waitWBSpace, waitFlushWB:
		return "write-stall"
	case waitFence:
		return "fence-stall"
	case waitAtomic:
		return "atomic-stall"
	case waitSpin:
		return "spin-wait"
	case waitSync:
		return "sync-wait"
	}
	return "stall"
}

// ProcStats breaks one simulated processor's time and activity down by
// cause, in the style of the paper's execution-time analyses.
type ProcStats struct {
	// Cycle accounting. Busy covers instruction issue and Compute;
	// the stall categories cover suspended time by cause.
	Busy        sim.Time
	ReadStall   sim.Time // waiting for read-miss data
	WriteStall  sim.Time // write buffer full or forced drain
	FenceStall  sim.Time // release fences awaiting acknowledgements
	AtomicStall sim.Time // atomic operations in flight
	SpinWait    sim.Time // parked on a watched block (compressed spin)
	SyncWait    sim.Time // parked in magic lock/barrier queues

	// Operation counts.
	Reads   uint64
	Writes  uint64
	Atomics uint64
	Flushes uint64
}

// Proc is one simulated processor. It executes a Program: a resumable
// state machine the event engine re-enters inline (Machine.RunProgram,
// see program.go), built from the F-prefixed operations.
type Proc struct {
	m    *Machine
	id   int
	name string // task label, built once

	// Execution state (program.go). task is the engine dispatch handle;
	// frames/fp the activation stack; ret the child result register;
	// wokenFrom carries the wait reason from unblock to resume so stall
	// accounting runs on the wake side; blockT0 is the park instant it
	// charges from. resumeFn is built once.
	task      sim.Task
	frames    [frameStackDepth]Frame
	fp        int
	ret       uint32
	wokenFrom waitReason
	blockT0   sim.Time
	resumeFn  func()

	wb      *cache.WriteBuffer
	waiting waitReason
	rng     *rand.Rand // built by the first Rand call
	rngUsed bool       // Rand was called since the last reset
	stats   ProcStats

	// phase is the synchronization-phase tag stack (see Phase); relBy is
	// the transaction that released the most recent wake, captured at the
	// release instant so stall attribution survives the resume hop.
	phase []Phase
	relBy trace.ReleaseInfo

	// pending accumulates locally charged cycles (instruction issue,
	// FCompute) that have not yet been realized on the simulated clock.
	// flushPending realizes them as a single StallFor before the
	// processor observes or mutates any state shared with the engine —
	// the write buffer, the coherence system, traces — so deferred
	// charging is indistinguishable from eager charging.
	pending sim.Time

	// One-shot completion state for the single in-flight blocking
	// operation (read, atomic, flush, or fence — a processor issues at
	// most one at a time). The callbacks are allocated once here so the
	// per-operation hot path is free of closure allocations.
	opDone     bool
	opVal      uint32
	readDone   func(uint32)
	atomicDone func(uint32)
	flushDone  func()
	fenceDone  func()
	drainStep  func()
	spinWake   func()
	syncWake   func()
}

func newProc(m *Machine, id int) *Proc {
	p := &Proc{
		m:    m,
		id:   id,
		name: fmt.Sprintf("proc%d", id),
		wb:   cache.NewWriteBuffer(m.cfg.WBEntries),
	}
	p.fp = -1
	p.resumeFn = p.resume
	p.task.Init(m.e, p.name, p.resumeFn)
	p.readDone = func(v uint32) {
		p.opVal = v
		p.opDone = true
		p.unblock(waitRead)
	}
	p.atomicDone = func(old uint32) {
		p.opVal = old
		p.opDone = true
		p.unblock(waitAtomic)
	}
	p.flushDone = func() {
		p.opDone = true
		p.unblock(waitRead)
	}
	p.fenceDone = func() {
		p.opDone = true
		p.unblock(waitFence)
	}
	p.drainStep = func() {
		p.wb.PopHead()
		switch p.waiting {
		case waitWBSpace:
			p.unblock(waitWBSpace)
		case waitFlushWB, waitFence:
			if p.wb.Empty() {
				p.unblock(p.waiting)
			}
		}
		p.drain()
	}
	p.spinWake = func() { p.unblock(waitSpin) }
	p.syncWake = func() { p.unblock(waitSync) }
	return p
}

// procSeed is the deterministic seed of processor id's private random
// source; reset re-seeds with the same value so a reused processor's
// random stream is identical to a fresh one's.
func procSeed(id int) int64 { return int64(id)*2654435761 + 12345 }

// reset returns the processor to its post-newProc state for machine
// reuse. The once-built callbacks and write buffer are kept; only the
// mutable run state is cleared.
func (p *Proc) reset() {
	p.wb.Reset()
	p.waiting = waitNone
	if p.rngUsed {
		// Reseeding costs several hundred cycles of generator setup;
		// skip it when the stream was never handed out (most workloads
		// draw no random numbers), which is behaviourally identical.
		p.rng.Seed(procSeed(p.id))
		p.rngUsed = false
	}
	p.stats = ProcStats{}
	p.pending = 0
	p.opDone = false
	p.opVal = 0
	p.phase = p.phase[:0]
	p.relBy = trace.ReleaseInfo{}
	for i := 0; i <= p.fp; i++ {
		p.frames[i] = Frame{}
	}
	p.fp = -1
	p.ret = 0
	p.wokenFrom = waitNone
	p.blockT0 = 0
	p.task.Init(p.m.e, p.name, p.resumeFn)
}

// BeginPhase pushes a synchronization-phase tag; EndPhase pops it. The
// stack is kept even with tracing off (its steady-state cost is an
// in-place append) so constructs need not know whether a tracer is
// attached.
func (p *Proc) BeginPhase(ph Phase) { p.phase = append(p.phase, ph) }

// EndPhase pops the innermost synchronization-phase tag.
func (p *Proc) EndPhase() {
	if len(p.phase) == 0 {
		panic("machine: EndPhase without BeginPhase")
	}
	p.phase = p.phase[:len(p.phase)-1]
}

// phaseCategory maps the innermost phase tag to a stall category.
func (p *Proc) phaseCategory() trace.Category {
	if n := len(p.phase); n > 0 {
		switch p.phase[n-1] {
		case PhaseLock:
			return trace.CatLockWait
		case PhaseBarrier:
			return trace.CatBarrierWait
		}
	}
	return trace.CatOtherSync
}

// stallCategory maps a completed stall to its paper-style overhead
// category, consulting the releasing transaction for the
// protocol-dependent write-path cases: the same fence stall is
// invalidation-wait under WI (the release waits on invalidation acks)
// and update-traffic under PU/CU (it waits on update acks).
func (p *Proc) stallCategory(r waitReason) (trace.Category, trace.TxnID) {
	switch r {
	case waitRead:
		return trace.CatReadMiss, p.relBy.ID
	case waitSpin:
		return p.phaseCategory(), p.relBy.ID
	case waitSync:
		return p.phaseCategory(), 0
	}
	// Write-path stalls: buffer space, forced drains, fences, atomics.
	rel := p.relBy
	switch {
	case rel.ID == 0:
		return trace.CatOtherSync, 0
	case rel.Kind == trace.TxnRead:
		return trace.CatReadMiss, rel.ID
	case rel.Fan == trace.FanInv && rel.Targets > 0:
		return trace.CatInvalidationWait, rel.ID
	case rel.Fan == trace.FanUpd && rel.Targets > 0:
		return trace.CatUpdateTraffic, rel.ID
	default:
		return trace.CatWriteOwnership, rel.ID
	}
}

// ID returns the processor number (0-based).
func (p *Proc) ID() int { return p.id }

// Now returns the current simulated time.
func (p *Proc) Now() sim.Time { return p.m.e.Now() }

// Rand returns the processor's private deterministic random source. It
// is built on first use: a 4.9 KB generator that most programs, which
// draw nothing, never pay for. Draw through Rand each time rather than
// keeping the source: reset reseeds only a source handed out since the
// last reset.
func (p *Proc) Rand() *rand.Rand {
	if p.rng == nil {
		p.rng = rand.New(rand.NewSource(procSeed(p.id)))
	}
	p.rngUsed = true
	return p.rng
}

// charge adds n cycles of local progress to the pending-cycle
// accumulator without touching the simulated clock.
func (p *Proc) charge(n sim.Time) { p.pending += n }

// issue charges the fixed one-cycle instruction issue of an operation:
// the operation count, the busy cycle, and the paired sampled counters
// — reading the clock once and skipping it entirely when observability
// is off.
func (p *Proc) issue(opCount *uint64, opCtr *metrics.Counter) {
	*opCount++
	p.stats.Busy++
	if p.m.cfg.Metrics != nil {
		now := p.m.e.Now()
		opCtr.Add(now, 1)
		p.m.met.busy.Add(now, 1)
	}
	p.charge(1)
}

// unblock wakes the processor if it is parked for the given reason,
// capturing the releasing transaction at the release instant. The wake
// is a direct call back into the step loop; wokenFrom carries the
// reason across so resume charges the stall.
func (p *Proc) unblock(r waitReason) {
	if p.waiting == r {
		if tr := p.m.cfg.Txn; tr != nil {
			p.relBy = tr.LastRelease(p.id)
		}
		p.waiting = waitNone
		p.wokenFrom = r
		p.task.Wake()
	}
}

// drain launches the protocol transaction for the write-buffer head if
// none is in flight. It runs in both processor and engine contexts.
func (p *Proc) drain() {
	if p.wb.Empty() || p.wb.Draining() {
		return
	}
	p.wb.MarkDraining()
	h := p.wb.Head()
	p.m.sys.Write(p.id, h.Addr, h.Val, p.drainStep)
}
