package machine

import (
	"fmt"

	"coherencesim/internal/cache"
	"coherencesim/internal/proto"
	"coherencesim/internal/sim"
	"coherencesim/internal/trace"
)

// This file is the processor execution model: workloads are explicit
// step functions that the event engine re-enters by direct call, on its
// own stack.
//
// Model: each processor owns a small stack of Frames. A Frame is one
// activation of a StepFunc — a resumable function encoding its position
// in PC and its locals in the fixed register fields. Step functions
// never block the calling goroutine: an operation that must wait parks
// the processor's engine Task and returns OpBlocked, unwinding to the
// event loop; the wake-up calls straight back into the step loop, which
// re-enters the top frame at its saved PC. Calling a sub-operation
// (a construct's acquire, a primitive read) pushes a child frame and
// returns OpCalled; when the child completes, the parent is re-entered
// at the PC it saved before the call, with the child's result in
// p.Ret().

// OpStatus is the result of running one step of a frame.
type OpStatus int

const (
	// OpDone: the frame's operation completed; its result (if any) is
	// in p.Ret(). The frame is popped and the parent re-entered.
	OpDone OpStatus = iota
	// OpBlocked: the processor parked (or scheduled a timed wake). The
	// step loop unwinds to the engine; the wake re-enters the same
	// frame at its current PC.
	OpBlocked
	// OpCalled: a child frame was pushed; the step loop runs it next.
	// The caller must have saved its resume PC first.
	OpCalled
)

// StepFunc is one resumable activation. Implementations are
// package-level functions (bound methods would allocate a closure per
// call); per-activation state lives in the Frame, shared construct
// state behind f.Obj.
type StepFunc func(p *Proc, f *Frame) OpStatus

// Frame is one activation record: a program counter plus a handful of
// typed registers. The register names carry no meaning — each StepFunc
// documents its own usage.
type Frame struct {
	PC         int
	I0, I1, I2 int
	U0, U1, U2 uint32
	A0, A1     Addr
	T0         sim.Time
	Obj        any
	step       StepFunc
}

// Program is a workload: Step is the root StepFunc run by every
// processor. The Program value is shared by all processors of a run (and
// must therefore be stateless or read-only during the run);
// per-processor state lives in the root frame's registers and
// p.ID()-indexed structures.
type Program interface {
	Step(p *Proc, f *Frame) OpStatus
}

// Steps is a Program written as a flat list of stages, for workloads
// that do not warrant a hand-written switch. Step runs stage f.PC and
// the ones after it until one parks or calls. While a stage runs, f.PC
// already names the next one, so a stage returns an F-operation's
// status to continue there, OpDone to fall through at once, and assigns
// f.PC to loop or — with any index past the end — to finish.
type Steps []func(p *Proc, f *Frame) OpStatus

// Step implements Program.
func (s Steps) Step(p *Proc, f *Frame) OpStatus {
	for f.PC < len(s) {
		stage := s[f.PC]
		f.PC++
		if st := stage(p, f); st != OpDone {
			return st
		}
	}
	return OpDone
}

// frameStackDepth bounds nesting: program -> construct -> spin ->
// primitive is the deepest stock chain (4); apps add one more level.
const frameStackDepth = 16

// runProgramStep adapts a Program's Step method to a package-level
// StepFunc for the root frame.
func runProgramStep(p *Proc, f *Frame) OpStatus {
	return f.Obj.(Program).Step(p, f)
}

// Call pushes a child frame for step with the given shared object and
// returns it so the caller can set argument registers. The caller must
// have saved its resume PC and must return OpCalled.
func (p *Proc) Call(step StepFunc, obj any) *Frame {
	p.fp++
	if p.fp >= frameStackDepth {
		panic(fmt.Sprintf("machine: proc %d frame stack overflow", p.id))
	}
	f := &p.frames[p.fp]
	*f = Frame{step: step, Obj: obj}
	return f
}

// Ret returns the result register of the last completed child frame.
func (p *Proc) Ret() uint32 { return p.ret }

// stepLoop drives the frame stack until the processor parks or its
// program completes, running entirely on the engine's own stack.
func (p *Proc) stepLoop() {
	for p.fp >= 0 {
		f := &p.frames[p.fp]
		switch f.step(p, f) {
		case OpDone:
			p.frames[p.fp].Obj = nil
			p.fp--
		case OpBlocked:
			return
		}
		// OpCalled: the top of stack changed; just keep looping.
	}
	p.task.End()
}

// startProgram arms the processor to run prog and registers its task
// with the engine (one live task, one start event at the current time).
func (p *Proc) startProgram(prog Program) {
	p.fp = 0
	p.frames[0] = Frame{step: runProgramStep, Obj: prog}
	p.task.Begin()
}

// resume is the processor's Task resume function: apply the stall
// accounting a wake implies, then re-enter the step loop. Timed wakes
// from StallFor carry no accounting.
func (p *Proc) resume() {
	if r := p.wokenFrom; r != waitNone {
		p.wokenFrom = waitNone
		p.wakeAccounting(r)
	}
	p.stepLoop()
}

// flushPending realizes accumulated local cycles as one stall; it must
// run before any interaction with shared protocol state. It reports
// true when the processor may proceed (no pending cycles, or the
// StallFor fast path absorbed them); false means the processor parked
// and the caller must return OpBlocked after having saved its resume PC.
func (p *Proc) flushPending() bool {
	if p.pending == 0 {
		return true
	}
	d := p.pending
	p.pending = 0
	return p.task.StallFor(d)
}

// block parks the processor with a reason tag and returns OpBlocked for
// the caller to propagate; wakeAccounting (run by resume) charges the
// suspended time when the wake arrives. Every call site has already
// realized its pending cycles (the flush stages precede the block
// stages), which blockT0 depends on, so this is asserted.
func (p *Proc) block(r waitReason) OpStatus {
	if p.waiting != waitNone {
		panic(fmt.Sprintf("machine: proc %d blocking while already waiting (%d)", p.id, p.waiting))
	}
	if p.pending != 0 {
		panic(fmt.Sprintf("machine: proc %d blocking with %d pending cycles", p.id, p.pending))
	}
	p.blockT0 = p.m.e.Now()
	p.waiting = r
	p.task.Park()
	return OpBlocked
}

// wakeAccounting charges a completed stall to its stall category, the
// metrics and the transaction tracer.
func (p *Proc) wakeAccounting(r waitReason) {
	t0 := p.blockT0
	now := p.m.e.Now()
	dt := now - t0
	switch r {
	case waitRead:
		p.stats.ReadStall += dt
	case waitWBSpace, waitFlushWB:
		p.stats.WriteStall += dt
	case waitFence:
		p.stats.FenceStall += dt
	case waitAtomic:
		p.stats.AtomicStall += dt
	case waitSpin:
		p.stats.SpinWait += dt
	case waitSync:
		p.stats.SyncWait += dt
	}
	p.m.met.stall[r].Add(now, dt)
	if tr := p.m.cfg.Txn; tr != nil && dt > 0 {
		cat, by := p.stallCategory(r)
		tr.AddStall(p.id, cat, r.timelineName(), t0, now, by)
	}
}

// ---- Primitive operations ----
//
// The PC stages of each primitive are exactly the operation's park
// points.

// FRead performs a load. Read hits take one cycle; misses stall until
// the protocol delivers the block. Reads bypass the write buffer,
// forwarding the newest buffered value for the same address. Result in
// p.Ret().
func (p *Proc) FRead(a Addr) OpStatus {
	f := p.Call(readStep, nil)
	f.A0 = a
	return OpCalled
}

// readStep registers: A0 address, T0 issue time of a miss.
func readStep(p *Proc, f *Frame) OpStatus {
	switch f.PC {
	case 0:
		p.issue(&p.stats.Reads, p.m.met.reads)
		f.PC = 1
		if !p.flushPending() {
			return OpBlocked
		}
		fallthrough
	case 1:
		if v, ok := p.wb.Forward(f.A0); ok {
			p.ret = v
			return OpDone
		}
		p.opDone = false
		f.T0 = p.m.e.Now()
		p.m.sys.Read(p.id, f.A0, p.readDone)
		if !p.opDone {
			f.PC = 2
			return p.block(waitRead)
		}
		p.ret = p.opVal
		p.m.cfg.Trace.Record(p.Now(), p.id, trace.Read, uint32(f.A0), p.ret)
		return OpDone
	case 2: // woken with the miss data
		p.m.met.readMiss.Observe(p.m.e.Now() - f.T0)
		p.ret = p.opVal
		p.m.cfg.Trace.Record(p.Now(), p.id, trace.ReadMiss, uint32(f.A0), p.ret)
		return OpDone
	}
	panic("machine: readStep bad pc")
}

// FWrite performs a store: one cycle into the write buffer, stalling only
// while the buffer is full. The buffered entry drains through the
// coherence protocol in the background.
func (p *Proc) FWrite(a Addr, v uint32) OpStatus {
	f := p.Call(writeStep, nil)
	f.A0, f.U0 = a, v
	return OpCalled
}

// writeStep registers: A0 address, U0 value.
func writeStep(p *Proc, f *Frame) OpStatus {
	switch f.PC {
	case 0:
		p.issue(&p.stats.Writes, p.m.met.writes)
		f.PC = 1
		if !p.flushPending() {
			return OpBlocked
		}
		fallthrough
	case 1: // re-entered after each buffer-space wake
		if p.wb.Full() {
			return p.block(waitWBSpace)
		}
		p.wb.Push(f.A0, f.U0)
		p.m.cfg.Trace.Record(p.Now(), p.id, trace.Write, uint32(f.A0), f.U0)
		p.drain()
		return OpDone
	}
	panic("machine: writeStep bad pc")
}

// FFetchAdd, FFetchStore and FCompareSwap are the paper's fetch_and_add,
// fetch_and_store (swap) and compare_and_swap. Each drains the write
// buffer first and leaves the old value in p.Ret(); a CompareSwap
// succeeded when p.Ret() equals the expected value.
func (p *Proc) FFetchAdd(a Addr, delta uint32) OpStatus {
	return p.fatomic(a, proto.FetchAdd, delta, 0)
}

func (p *Proc) FFetchStore(a Addr, v uint32) OpStatus {
	return p.fatomic(a, proto.FetchStore, v, 0)
}

func (p *Proc) FCompareSwap(a Addr, oldV, newV uint32) OpStatus {
	return p.fatomic(a, proto.CompareSwap, oldV, newV)
}

func (p *Proc) fatomic(a Addr, kind proto.AtomicKind, op1, op2 uint32) OpStatus {
	f := p.Call(atomicStep, nil)
	f.A0, f.U0, f.U1, f.I0 = a, op1, op2, int(kind)
	return OpCalled
}

// atomicStep registers: A0 address, U0/U1 operands, I0 proto.AtomicKind.
func atomicStep(p *Proc, f *Frame) OpStatus {
	switch f.PC {
	case 0:
		p.issue(&p.stats.Atomics, p.m.met.atomics)
		f.PC = 1
		if !p.flushPending() {
			return OpBlocked
		}
		fallthrough
	case 1: // drainWB loop: atomics force the write buffer empty first
		if !p.wb.Empty() {
			return p.block(waitFlushWB)
		}
		p.opDone = false
		p.m.sys.Atomic(p.id, f.A0, proto.AtomicKind(f.I0), f.U0, f.U1, p.atomicDone)
		if !p.opDone {
			f.PC = 2
			return p.block(waitAtomic)
		}
		fallthrough
	case 2: // completed (usually via the waitAtomic wake)
		p.ret = p.opVal
		p.m.cfg.Trace.Record(p.Now(), p.id, trace.Atomic, uint32(f.A0), p.ret)
		return OpDone
	}
	panic("machine: atomicStep bad pc")
}

// FFence is the release-consistency synchronization point: it stalls
// until the write buffer has drained and every prior write has been
// fully acknowledged. Issue it before releasing writes (unlock,
// barrier-arrival stores).
func (p *Proc) FFence() OpStatus {
	p.Call(fenceStep, nil)
	return OpCalled
}

func fenceStep(p *Proc, f *Frame) OpStatus {
	switch f.PC {
	case 0: // wait for the write buffer to drain
		if !p.wb.Empty() {
			return p.block(waitFence)
		}
		p.opDone = false
		p.m.sys.WhenDrained(p.id, p.fenceDone)
		if !p.opDone {
			f.PC = 1
			return p.block(waitFence)
		}
		fallthrough
	case 1: // all prior writes acknowledged
		p.m.cfg.Trace.Record(p.Now(), p.id, trace.Fence, 0, 0)
		return OpDone
	}
	panic("machine: fenceStep bad pc")
}

// FFlush issues a user-level block flush of a's block (the PowerPC-style
// instruction used by the update-conscious MCS lock). Pending buffered
// stores drain first, so the flushed line's writes are not resurrected.
func (p *Proc) FFlush(a Addr) OpStatus {
	f := p.Call(flushStep, nil)
	f.A0 = a
	return OpCalled
}

// flushStep registers: A0 address.
func flushStep(p *Proc, f *Frame) OpStatus {
	switch f.PC {
	case 0:
		p.issue(&p.stats.Flushes, p.m.met.flushes)
		f.PC = 1
		if !p.flushPending() {
			return OpBlocked
		}
		fallthrough
	case 1: // buffered stores drain first
		if !p.wb.Empty() {
			return p.block(waitFlushWB)
		}
		p.m.sys.FlushBlock(p.id, f.A0)
		p.m.cfg.Trace.Record(p.Now(), p.id, trace.Flush, uint32(f.A0), 0)
		return OpDone
	}
	panic("machine: flushStep bad pc")
}

// FCompute charges n cycles of local computation. It reports true when
// the caller may proceed; false means the processor parked for the
// duration and the caller must return OpBlocked after saving the PC of
// the statement after the compute.
func (p *Proc) FCompute(n sim.Time) bool {
	if n == 0 {
		return true
	}
	p.stats.Busy += n
	p.m.met.busy.Add(p.m.e.Now(), n)
	p.charge(n)
	return p.flushPending()
}

// spinPred encodes the two wait conditions the stock constructs spin
// on, avoiding a predicate closure per spin.
type spinPred uint8

const (
	spinUntilEq spinPred = iota // wait until word == arg
	spinUntilNe                 // wait until word != arg
)

func (sp spinPred) ok(v, arg uint32) bool {
	if sp == spinUntilEq {
		return v == arg
	}
	return v != arg
}

// FSpinUntilEqual spins reading the word at a until it equals v;
// satisfying value in p.Ret(). The spin is compressed: between checks
// the processor parks and is woken only when a coherence event
// (invalidate, update, drop, eviction) touches the watched block — the
// only instants at which the value can change. Each check charges the
// one-cycle read (plus any miss latency), exactly as an uncompressed
// spin loop's first and post-event iterations would. With
// SpinPollCycles > 0 it instead re-reads every that many cycles.
func (p *Proc) FSpinUntilEqual(a Addr, v uint32) OpStatus {
	f := p.Call(spinStep, nil)
	f.A0, f.U0, f.U1 = a, v, uint32(spinUntilEq)
	return OpCalled
}

// FSpinWhileEqual spins until the word at a differs from v.
func (p *Proc) FSpinWhileEqual(a Addr, v uint32) OpStatus {
	f := p.Call(spinStep, nil)
	f.A0, f.U0, f.U1 = a, v, uint32(spinUntilNe)
	return OpCalled
}

// spinStep registers: A0 address, U0 predicate argument, U1 spinPred,
// T0 poll-interval start. It is a real frame (not collapsed into its
// caller) because it nests full FRead activations.
func spinStep(p *Proc, f *Frame) OpStatus {
	for {
		switch f.PC {
		case 0: // check: read the word (charges like any read)
			f.PC = 1
			return p.FRead(f.A0)
		case 1:
			v := p.ret
			if spinPred(f.U1).ok(v, f.U0) {
				p.ret = v
				return OpDone
			}
			if poll := p.m.cfg.SpinPollCycles; poll > 0 {
				// Uncompressed polling loop (ablation): charge the
				// interval now, trace its stall at PC 2.
				f.T0 = p.m.e.Now()
				p.stats.SpinWait += poll
				p.m.met.stall[waitSpin].Add(f.T0, poll)
				f.PC = 2
				if !p.task.StallFor(poll) {
					return OpBlocked
				}
				continue
			}
			// Compressed spin: park until a coherence event touches the
			// watched block.
			block := cache.BlockOf(f.A0)
			p.m.cfg.Trace.Record(p.Now(), p.id, trace.SpinPark, block*cache.BlockBytes, 0)
			p.m.sys.Cache(p.id).Watch(block, p.spinWake)
			f.PC = 3
			return p.block(waitSpin)
		case 2: // poll interval elapsed
			if tr := p.m.cfg.Txn; tr != nil {
				tr.AddStall(p.id, p.phaseCategory(), waitSpin.timelineName(), f.T0, p.m.e.Now(), 0)
			}
			f.PC = 0
		case 3: // woken by a coherence event on the watched block
			p.m.cfg.Trace.Record(p.Now(), p.id, trace.SpinWake, cache.BlockOf(f.A0)*cache.BlockBytes, 0)
			f.PC = 0
		default:
			panic("machine: spinStep bad pc")
		}
	}
}
