package workload

import (
	"coherencesim/internal/constructs"
	"coherencesim/internal/machine"
	"coherencesim/internal/sim"
)

// Program re-exports the machine's workload interface: a resumable step
// function dispatched inline by the event loop. The synthetic programs
// below are the loop bodies of the paper's Section 4 workloads and of
// the retention ablation; the entry points in workload.go run them
// through Machine.RunProgram.
type Program = machine.Program

// LockVariant selects the lock-loop flavour.
type LockVariant int

const (
	PlainLock   LockVariant = iota
	RandomPause             // a bounded pseudo-random pause after each release
	WorkRatio               // P times the hold time (± 10%) of work outside
)

// program builds the variant's body for iters per-processor iterations.
func (v LockVariant) program(p Params, l constructs.Lock, iters int) Program {
	if v < PlainLock || v > WorkRatio {
		panic("workload: unknown lock variant")
	}
	return &lockLoopProgram{l: l, iters: iters, hold: p.HoldCycles, variant: v, procs: p.Procs}
}

// reductionProgram builds the (im)balanced reduction body for iters
// episodes starting at episode base.
func reductionProgram(p Params, imbalanced bool, red constructs.Reducer, iters, base int) Program {
	return &reductionLoopProgram{red: red, iters: iters, procs: p.Procs, base: base, imbalanced: imbalanced}
}

// lockLoopProgram is the lock loops' body: acquire, hold, release, then
// the variant's pause, repeat. Registers: I0 iteration.
type lockLoopProgram struct {
	l       constructs.Lock
	iters   int
	hold    sim.Time
	variant LockVariant
	procs   int
}

// pause is the work outside the lock after each release: none for
// PlainLock (no random number drawn), a bounded pseudo-random pause for
// RandomPause, P times the hold time within ±10% for WorkRatio.
func (g *lockLoopProgram) pause(p *machine.Proc) sim.Time {
	switch g.variant {
	case RandomPause:
		return sim.Time(p.Rand().Int63n(int64(4*g.hold) + 1))
	case WorkRatio:
		outside := int64(g.hold) * int64(g.procs)
		return sim.Time(outside + p.Rand().Int63n(outside/5+1) - outside/10)
	}
	return 0
}

func (g *lockLoopProgram) Step(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	for {
		switch f.PC {
		case 0:
			if f.I0 >= g.iters {
				return machine.OpDone
			}
			f.PC = 1
			return g.l.FAcquire(p)
		case 1: // critical section
			f.PC = 2
			if !p.FCompute(g.hold) {
				return machine.OpBlocked
			}
			fallthrough
		case 2:
			f.PC = 3
			return g.l.FRelease(p)
		case 3:
			f.I0++
			f.PC = 0
			if !p.FCompute(g.pause(p)) {
				return machine.OpBlocked
			}
		default:
			panic("workload: lockLoopProgram bad pc")
		}
	}
}

// barrierLoopProgram is BarrierLoop's body. Registers: I0 episode.
type barrierLoopProgram struct {
	b     constructs.Barrier
	iters int
}

func (g *barrierLoopProgram) Step(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	if f.I0 >= g.iters {
		return machine.OpDone
	}
	f.I0++
	return g.b.FWait(p)
}

// reductionLoopProgram is ReductionLoop's body: reduce, then read the
// global result; when imbalanced, a pseudo-random production delay
// precedes each episode. Registers: I0 episode. base offsets the episode
// index for continuation phases (warm-fork runs), so local values stay
// strictly increasing across the phase boundary.
type reductionLoopProgram struct {
	red        constructs.Reducer
	iters      int
	procs      int
	base       int
	imbalanced bool
}

func (g *reductionLoopProgram) Step(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	switch f.PC {
	case 0:
		if f.I0 >= g.iters {
			return machine.OpDone
		}
		f.PC = 1
		if g.imbalanced && !p.FCompute(sim.Time(p.Rand().Int63n(400)+1)) {
			return machine.OpBlocked
		}
		fallthrough
	case 1:
		f.PC = 2
		return g.red.FReduce(p, localValue(g.base+f.I0, p.ID(), g.procs))
	case 2: // the figures' "code that uses max"
		f.I0++
		f.PC = 0
		return p.FRead(g.red.ResultAddr())
	}
	panic("workload: reductionLoopProgram bad pc")
}

// privateRewriteProgram is PrivateRewriteLoop's body: every phase each
// processor rewrites all words of its own block, then all cross a magic
// barrier; at the join a neighbour consumes the privately built result.
// Registers: I0 phase, I1 word.
type privateRewriteProgram struct {
	own    []machine.Addr
	b      *machine.MagicBarrier
	phases int
}

// rewritesPerPhase is one store per word of a 64-byte private block.
const rewritesPerPhase = 16

func (g *privateRewriteProgram) Step(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	switch f.PC {
	case 0:
		id := p.ID()
		if f.I0 >= g.phases {
			f.PC = 1
			return p.FRead(g.own[(id+1)%len(g.own)])
		}
		if w := f.I1; w < rewritesPerPhase {
			f.I1++
			return p.FWrite(g.own[id]+machine.Addr(4*w), uint32(f.I0*100+w))
		}
		f.I0++
		f.I1 = 0
		return g.b.FWait(p)
	case 1:
		return machine.OpDone
	}
	panic("workload: privateRewriteProgram bad pc")
}
