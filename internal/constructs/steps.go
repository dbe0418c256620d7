package constructs

import (
	"coherencesim/internal/machine"
	"coherencesim/internal/sim"
)

// This file holds the behaviour of the paper's constructs (the TAS/TTAS
// extensions carry theirs in locks_extra.go): each F-prefixed method
// pushes one frame running a package-level step function, which brackets
// its operations in the construct's synchronization phase and observes
// the episode latency when it completes.

var (
	_ Lock    = (*TicketLock)(nil)
	_ Lock    = (*MCSLock)(nil)
	_ Lock    = (*TASLock)(nil)
	_ Lock    = (*TTASLock)(nil)
	_ Lock    = (*machine.MagicLock)(nil)
	_ Barrier = (*CentralBarrier)(nil)
	_ Barrier = (*DisseminationBarrier)(nil)
	_ Barrier = (*TreeBarrier)(nil)
	_ Barrier = (*machine.MagicBarrier)(nil)
	_ Reducer = (*ParallelReducer)(nil)
	_ Reducer = (*SequentialReducer)(nil)
)

// ---- TicketLock ----

// FAcquire takes a ticket and probes (with proportional backoff) until
// it is served.
func (l *TicketLock) FAcquire(p *machine.Proc) machine.OpStatus {
	p.Call(ticketAcquireStep, l)
	return machine.OpCalled
}

// FRelease serves the next ticket. The store is a release: it first
// waits for the holder's outstanding writes.
func (l *TicketLock) FRelease(p *machine.Proc) machine.OpStatus {
	p.Call(ticketReleaseStep, l)
	return machine.OpCalled
}

// ticketAcquireStep registers: T0 episode start, U0 my ticket.
func ticketAcquireStep(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	l := f.Obj.(*TicketLock)
	for {
		switch f.PC {
		case 0:
			f.T0 = p.Now()
			p.BeginPhase(machine.PhaseLock)
			f.PC = 1
			return p.FFetchAdd(l.ticket, 1)
		case 1:
			f.U0 = p.Ret()
			l.myTick[p.ID()] = f.U0
			f.PC = 2
			return p.FRead(l.now)
		case 2: // probe result in p.Ret()
			now := p.Ret()
			if now == f.U0 {
				p.EndPhase()
				l.lat.Observe(p.Now() - f.T0)
				return machine.OpDone
			}
			f.PC = 3
			if !p.FCompute(sim.Time(l.backoff * (f.U0 - now))) {
				return machine.OpBlocked
			}
			fallthrough
		case 3: // backoff elapsed: probe again
			f.PC = 2
			return p.FRead(l.now)
		default:
			panic("constructs: ticketAcquireStep bad pc")
		}
	}
}

func ticketReleaseStep(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	l := f.Obj.(*TicketLock)
	switch f.PC {
	case 0:
		p.BeginPhase(machine.PhaseLock)
		f.PC = 1
		return p.FFence()
	case 1:
		f.PC = 2
		return p.FWrite(l.now, l.myTick[p.ID()]+1)
	case 2:
		p.EndPhase()
		return machine.OpDone
	}
	panic("constructs: ticketReleaseStep bad pc")
}

// ---- MCSLock ----

// FAcquire appends p's node to the queue and spins on its own flag.
func (l *MCSLock) FAcquire(p *machine.Proc) machine.OpStatus {
	p.Call(mcsAcquireStep, l)
	return machine.OpCalled
}

// FRelease hands the lock to the successor, or empties the queue.
func (l *MCSLock) FRelease(p *machine.Proc) machine.OpStatus {
	p.Call(mcsReleaseStep, l)
	return machine.OpCalled
}

// mcsAcquireStep registers: T0 episode start, A0 own node, A1 pred.
func mcsAcquireStep(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	l := f.Obj.(*MCSLock)
	switch f.PC {
	case 0:
		f.T0 = p.Now()
		p.BeginPhase(machine.PhaseLock)
		f.A0 = l.node(p.ID())
		f.PC = 1
		return p.FWrite(f.A0+qnodeNext, 0)
	case 1:
		f.PC = 2
		return p.FFetchStore(l.tail, uint32(f.A0))
	case 2:
		f.A1 = machine.Addr(p.Ret())
		if f.A1 == 0 { // queue was empty: lock acquired
			p.EndPhase()
			l.lat.Observe(p.Now() - f.T0)
			return machine.OpDone
		}
		f.PC = 3
		return p.FWrite(f.A0+qnodeLocked, 1)
	case 3: // flag-before-link ordering fence
		f.PC = 4
		return p.FFence()
	case 4:
		f.PC = 5
		return p.FWrite(f.A1+qnodeNext, uint32(f.A0))
	case 5:
		if l.updateConscious {
			f.PC = 6
			return p.FFlush(f.A1) // paper: "Flush *pred in update-conscious MCS"
		}
		fallthrough
	case 6:
		f.PC = 7
		return p.FSpinUntilEqual(f.A0+qnodeLocked, 0)
	case 7:
		p.EndPhase()
		l.lat.Observe(p.Now() - f.T0)
		return machine.OpDone
	}
	panic("constructs: mcsAcquireStep bad pc")
}

// mcsReleaseStep registers: A0 own node, A1 successor node.
func mcsReleaseStep(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	l := f.Obj.(*MCSLock)
	switch f.PC {
	case 0:
		p.BeginPhase(machine.PhaseLock)
		f.A0 = l.node(p.ID())
		f.PC = 1
		return p.FFence() // release: the critical section's writes
	case 1:
		f.PC = 2
		return p.FRead(f.A0 + qnodeNext)
	case 2:
		f.A1 = machine.Addr(p.Ret())
		if f.A1 != 0 {
			f.PC = 5
			return p.FWrite(f.A1+qnodeLocked, 0)
		}
		// No known successor: try to swing the tail back to nil.
		f.PC = 3
		return p.FCompareSwap(l.tail, uint32(f.A0), 0)
	case 3:
		if p.Ret() == uint32(f.A0) { // CAS won: queue emptied
			p.EndPhase()
			return machine.OpDone
		}
		// A successor is mid-enqueue: wait for the link.
		f.PC = 4
		return p.FSpinWhileEqual(f.A0+qnodeNext, 0)
	case 4:
		f.A1 = machine.Addr(p.Ret())
		f.PC = 5
		return p.FWrite(f.A1+qnodeLocked, 0)
	case 5:
		if l.updateConscious {
			f.PC = 6
			return p.FFlush(f.A1) // paper: "Flush *(I->next) in update-conscious MCS"
		}
		fallthrough
	case 6:
		p.EndPhase()
		return machine.OpDone
	}
	panic("constructs: mcsReleaseStep bad pc")
}

// ---- CentralBarrier ----

// FWait joins the barrier episode.
func (b *CentralBarrier) FWait(p *machine.Proc) machine.OpStatus {
	p.Call(centralWaitStep, b)
	return machine.OpCalled
}

// centralWaitStep registers: T0 episode start, U0 local sense.
func centralWaitStep(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	b := f.Obj.(*CentralBarrier)
	switch f.PC {
	case 0:
		f.T0 = p.Now()
		p.BeginPhase(machine.PhaseBarrier)
		f.PC = 1
		return p.FFence() // release: writes before the barrier
	case 1:
		ls := b.localSense[p.ID()]
		b.localSense[p.ID()] = 1 - ls // toggle private sense (register-resident)
		f.U0 = ls
		f.PC = 2
		// fetch_and_decrement: add -1, old value 1 means we are last.
		return p.FFetchAdd(b.count, ^uint32(0))
	case 2:
		if p.Ret() == 1 { // we are last: reset and release
			f.PC = 3
			return p.FWrite(b.count, uint32(b.procs))
		}
		f.PC = 5
		return p.FSpinUntilEqual(b.sense, f.U0)
	case 3:
		f.PC = 4
		return p.FFence()
	case 4:
		f.PC = 5
		return p.FWrite(b.sense, f.U0)
	case 5:
		p.EndPhase()
		b.lat.Observe(p.Now() - f.T0)
		return machine.OpDone
	}
	panic("constructs: centralWaitStep bad pc")
}

// ---- DisseminationBarrier ----

// FWait joins the barrier episode.
func (b *DisseminationBarrier) FWait(p *machine.Proc) machine.OpStatus {
	p.Call(disseminationWaitStep, b)
	return machine.OpCalled
}

// disseminationWaitStep registers: T0 episode start, I0 round. The
// per-episode parity and sense are read from the barrier (they change
// only at episode end, by this processor itself).
func disseminationWaitStep(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	b := f.Obj.(*DisseminationBarrier)
	for {
		switch f.PC {
		case 0:
			f.T0 = p.Now()
			p.BeginPhase(machine.PhaseBarrier)
			f.PC = 1
			return p.FFence()
		case 1:
			f.PC = 2
			if !p.FCompute(1) { // parity/sense bookkeeping instructions
				return machine.OpBlocked
			}
			fallthrough
		case 2: // round loop head: signal this round's partner
			id := p.ID()
			if f.I0 >= b.rounds {
				par, sense := b.parity[id], b.sense[id]
				if par == 1 {
					b.sense[id] = 1 - sense
				}
				b.parity[id] = 1 - par
				p.EndPhase()
				b.lat.Observe(p.Now() - f.T0)
				return machine.OpDone
			}
			partner := (id + (1 << uint(f.I0))) % b.procs
			f.PC = 3
			return p.FWrite(b.flagAddr(partner, b.parity[id], f.I0), b.sense[id])
		case 3: // await this round's own flag
			id := p.ID()
			f.PC = 4
			return p.FSpinUntilEqual(b.flagAddr(id, b.parity[id], f.I0), b.sense[id])
		case 4:
			f.I0++
			f.PC = 2
		default:
			panic("constructs: disseminationWaitStep bad pc")
		}
	}
}

// ---- TreeBarrier ----

// FWait joins the barrier episode.
func (b *TreeBarrier) FWait(p *machine.Proc) machine.OpStatus {
	p.Call(treeWaitStep, b)
	return machine.OpCalled
}

// treeWaitStep registers: T0 episode start, I0 child index (reused by
// the arrival-spin and the re-arm loops).
func treeWaitStep(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	b := f.Obj.(*TreeBarrier)
	for {
		switch f.PC {
		case 0:
			f.T0 = p.Now()
			p.BeginPhase(machine.PhaseBarrier)
			f.PC = 1
			return p.FFence()
		case 1: // arrival loop: wait for each child, one flag at a time
			id := p.ID()
			for f.I0 < 4 && !b.havechild[id][f.I0] {
				f.I0++
			}
			if f.I0 < 4 {
				f.PC = 2
				return p.FSpinUntilEqual(b.childFlag(id, f.I0), 0)
			}
			f.I0 = 0
			f.PC = 3
		case 2:
			f.I0++
			f.PC = 1
		case 3: // re-arm loop (childnotready := havechild)
			id := p.ID()
			for f.I0 < 4 && !b.havechild[id][f.I0] {
				f.I0++
			}
			if f.I0 < 4 {
				j := f.I0
				f.I0++
				return p.FWrite(b.childFlag(id, j), 1)
			}
			if id != 0 {
				f.PC = 4
			} else {
				f.PC = 7
			}
		case 4: // non-root: publish readiness to the parent
			f.PC = 5
			return p.FFence()
		case 5:
			f.PC = 6
			return p.FWrite(b.parentSlot(p.ID()), 0)
		case 6:
			f.PC = 9
			return p.FSpinUntilEqual(b.globalSense, b.sense[p.ID()])
		case 7: // root: toggle the global sense
			f.PC = 8
			return p.FFence()
		case 8:
			f.PC = 9
			return p.FWrite(b.globalSense, b.sense[p.ID()])
		case 9:
			id := p.ID()
			b.sense[id] = 1 - b.sense[id]
			p.EndPhase()
			b.lat.Observe(p.Now() - f.T0)
			return machine.OpDone
		default:
			panic("constructs: treeWaitStep bad pc")
		}
	}
}

// ---- Reducers ----

// FReduce performs one parallel reduction episode.
func (r *ParallelReducer) FReduce(p *machine.Proc, local uint32) machine.OpStatus {
	f := p.Call(parallelReduceStep, r)
	f.U0 = local
	return machine.OpCalled
}

// parallelReduceStep registers: T0 episode start, U0 local value.
func parallelReduceStep(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	r := f.Obj.(*ParallelReducer)
	switch f.PC {
	case 0:
		f.T0 = p.Now()
		f.PC = 1
		return r.lock.FAcquire(p)
	case 1:
		f.PC = 2
		return p.FRead(r.max)
	case 2:
		if p.Ret() < f.U0 {
			f.PC = 3
			return p.FWrite(r.max, f.U0)
		}
		fallthrough
	case 3:
		f.PC = 4
		return r.lock.FRelease(p)
	case 4:
		f.PC = 5
		return r.barrier.FWait(p)
	case 5:
		r.lat.Observe(p.Now() - f.T0)
		return machine.OpDone
	}
	panic("constructs: parallelReduceStep bad pc")
}

// FReduce performs one sequential reduction episode.
func (r *SequentialReducer) FReduce(p *machine.Proc, local uint32) machine.OpStatus {
	f := p.Call(sequentialReduceStep, r)
	f.U0 = local
	return machine.OpCalled
}

// sequentialReduceStep registers: T0 episode start, U0 local value,
// I0 combining-slot index, U1 slot value under combination.
func sequentialReduceStep(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	r := f.Obj.(*SequentialReducer)
	for {
		switch f.PC {
		case 0:
			f.T0 = p.Now()
			f.PC = 1
			return p.FWrite(r.slots[p.ID()], f.U0)
		case 1: // barrier entry fences, publishing the slot
			f.PC = 2
			return r.barrier.FWait(p)
		case 2:
			if p.ID() != 0 {
				f.PC = 6
				continue
			}
			f.PC = 3
		case 3: // combining loop head (processor 0 only)
			if f.I0 >= r.procs {
				f.PC = 6
				continue
			}
			f.PC = 4
			return p.FRead(r.slots[f.I0])
		case 4:
			f.U1 = p.Ret()
			f.PC = 5
			return p.FRead(r.max)
		case 5:
			if p.Ret() < f.U1 {
				f.I0++
				f.PC = 3
				return p.FWrite(r.max, f.U1)
			}
			f.I0++
			f.PC = 3
		case 6:
			f.PC = 7
			return r.barrier.FWait(p)
		case 7:
			r.lat.Observe(p.Now() - f.T0)
			return machine.OpDone
		default:
			panic("constructs: sequentialReduceStep bad pc")
		}
	}
}
