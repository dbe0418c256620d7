package machine

// MagicLock is the paper's zero-traffic lock (Section 4.3): it serializes
// critical sections with FIFO fairness at a fixed cycle cost and without
// generating any coherence or network activity. The reduction experiments
// use it so that reduction communication is measured in isolation.
//
// FRelease performs the release-consistency fence (waiting for the
// holder's outstanding write acknowledgements), since that stall is a
// property of the data writes being released, not of the lock's own
// communication.
type MagicLock struct {
	m     *Machine
	held  bool
	queue []*Proc
}

// NewMagicLock creates a zero-traffic lock on m.
func (m *Machine) NewMagicLock() *MagicLock {
	m.MarkConstruct("magic lock")
	return &MagicLock{m: m}
}

// FAcquire obtains the lock, queueing FIFO behind the current holder.
func (l *MagicLock) FAcquire(p *Proc) OpStatus {
	p.Call(magicAcquireStep, l)
	return OpCalled
}

// FRelease passes the lock to the oldest waiter, or frees it.
func (l *MagicLock) FRelease(p *Proc) OpStatus {
	p.Call(magicReleaseStep, l)
	return OpCalled
}

func magicAcquireStep(p *Proc, f *Frame) OpStatus {
	l := f.Obj.(*MagicLock)
	switch f.PC {
	case 0:
		p.BeginPhase(PhaseLock)
		f.PC = 1
		if !p.FCompute(magicSyncLatency) {
			return OpBlocked
		}
		fallthrough
	case 1:
		if !l.held {
			l.held = true
			p.EndPhase()
			return OpDone
		}
		l.queue = append(l.queue, p)
		f.PC = 2
		return p.block(waitSync)
	case 2: // woken by a release handing us the lock
		p.EndPhase()
		return OpDone
	}
	panic("machine: magicAcquireStep bad pc")
}

func magicReleaseStep(p *Proc, f *Frame) OpStatus {
	l := f.Obj.(*MagicLock)
	switch f.PC {
	case 0:
		if !l.held {
			panic("machine: MagicLock.Release without holder")
		}
		p.BeginPhase(PhaseLock)
		f.PC = 1
		return p.FFence() // release consistency: holder's write acks
	case 1:
		f.PC = 2
		if !p.FCompute(magicSyncLatency) {
			return OpBlocked
		}
		fallthrough
	case 2:
		if len(l.queue) == 0 {
			l.held = false
		} else {
			// Pop by shifting down, keeping the queue's storage.
			next := l.queue[0]
			l.queue = l.queue[:copy(l.queue, l.queue[1:])]
			l.m.e.Schedule(0, next.syncWake)
		}
		p.EndPhase()
		return OpDone
	}
	panic("machine: magicReleaseStep bad pc")
}

// MagicBarrier is the paper's zero-traffic barrier: all processors
// proceed a fixed cost after the last arrival, with no coherence or
// network activity.
type MagicBarrier struct {
	m       *Machine
	n       int
	arrived int
	waiters []*Proc
}

// NewMagicBarrier creates a zero-traffic barrier for all of m's
// processors.
func (m *Machine) NewMagicBarrier() *MagicBarrier {
	m.MarkConstruct("magic barrier")
	return &MagicBarrier{m: m, n: m.cfg.Procs}
}

// FWait blocks until all processors have arrived. Like any barrier under
// release consistency, arrival first waits for the processor's prior
// writes to be fully acknowledged, so data written before the barrier is
// visible to every processor after it.
func (b *MagicBarrier) FWait(p *Proc) OpStatus {
	p.Call(magicBarrierWaitStep, b)
	return OpCalled
}

func magicBarrierWaitStep(p *Proc, f *Frame) OpStatus {
	b := f.Obj.(*MagicBarrier)
	switch f.PC {
	case 0:
		p.BeginPhase(PhaseBarrier)
		f.PC = 1
		return p.FFence()
	case 1:
		b.arrived++
		if b.arrived < b.n {
			b.waiters = append(b.waiters, p)
			f.PC = 3
			return p.block(waitSync)
		}
		// Last arrival: release everyone after the fixed cost.
		b.arrived = 0
		for _, w := range b.waiters {
			b.m.e.Schedule(magicSyncLatency, w.syncWake)
		}
		b.waiters = b.waiters[:0]
		f.PC = 2
		if !p.FCompute(magicSyncLatency) {
			return OpBlocked
		}
		fallthrough
	case 2:
		p.EndPhase()
		return OpDone
	case 3: // woken by the last arrival
		p.EndPhase()
		return OpDone
	}
	panic("machine: magicBarrierWaitStep bad pc")
}
