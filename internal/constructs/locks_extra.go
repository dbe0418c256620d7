package constructs

import (
	"coherencesim/internal/machine"
	"coherencesim/internal/metrics"
	"coherencesim/internal/sim"
)

// This file implements two further spin locks from the Mellor-Crummey &
// Scott suite the paper draws its candidates from. The paper's
// evaluation covers the ticket and MCS locks (its Section 2.1 cites the
// earlier result that those two dominate the low- and high-contention
// regimes under WI); these are provided as library extensions so users
// can reproduce that earlier comparison under the update-based protocols
// as well (see experiments.ExtendedLockSweep).

// TASLock is the classic test_and_set spin lock with bounded exponential
// backoff: acquisition attempts are fetch_and_store(1) operations, and
// each failed attempt doubles a randomized pause. The single lock word
// lives at node 0.
type TASLock struct {
	word       machine.Addr
	minBackoff sim.Time
	maxBackoff sim.Time
	lat        *metrics.Histogram
}

// NewTASLock allocates a test-and-set lock.
func NewTASLock(m *machine.Machine, name string) *TASLock {
	m.MarkConstruct(name)
	return &TASLock{
		word:       m.Alloc(name+".tas", 4, 0),
		minBackoff: 8,
		maxBackoff: 1024,
		lat:        m.MetricsHistogram(HistLockAcquire),
	}
}

// FAcquire spins with exponential backoff until the swap wins.
func (l *TASLock) FAcquire(p *machine.Proc) machine.OpStatus {
	p.Call(tasAcquireStep, l)
	return machine.OpCalled
}

// FRelease clears the lock word (a release: fences first).
func (l *TASLock) FRelease(p *machine.Proc) machine.OpStatus {
	return fClearWord(p, l.word)
}

// tasAcquireStep registers: T0 episode start, I0 doublings applied to
// the backoff window. The window is minBackoff<<I0 — kept as a count so
// no register has to be as wide as the sim.Time bounds.
func tasAcquireStep(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	l := f.Obj.(*TASLock)
	switch f.PC {
	case 0:
		f.T0 = p.Now()
		p.BeginPhase(machine.PhaseLock)
		f.PC = 1
		return p.FFetchStore(l.word, 1)
	case 1: // swap result in p.Ret()
		if p.Ret() == 0 {
			p.EndPhase()
			l.lat.Observe(p.Now() - f.T0)
			return machine.OpDone
		}
		pause := l.minBackoff << uint(f.I0)
		if pause < l.maxBackoff {
			f.I0++
		}
		f.PC = 2
		if !p.FCompute(sim.Time(p.Rand().Int63n(int64(pause))) + 1) {
			return machine.OpBlocked
		}
		fallthrough
	case 2: // backoff elapsed: swap again
		f.PC = 1
		return p.FFetchStore(l.word, 1)
	}
	panic("constructs: tasAcquireStep bad pc")
}

// fClearWord pushes the release both locks share: fence, then clear the
// lock word.
func fClearWord(p *machine.Proc, word machine.Addr) machine.OpStatus {
	f := p.Call(clearWordStep, nil)
	f.A0 = word
	return machine.OpCalled
}

// clearWordStep registers: A0 lock word.
func clearWordStep(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	switch f.PC {
	case 0:
		p.BeginPhase(machine.PhaseLock)
		f.PC = 1
		return p.FFence()
	case 1:
		f.PC = 2
		return p.FWrite(f.A0, 0)
	case 2:
		p.EndPhase()
		return machine.OpDone
	}
	panic("constructs: clearWordStep bad pc")
}

// TTASLock is the test-and-test_and_set lock: waiters spin reading the
// lock word (hitting in their caches, or receiving updates) and attempt
// the atomic swap only when they observe it free — the textbook fix for
// TAS's coherence storm under invalidate protocols.
type TTASLock struct {
	word machine.Addr
	lat  *metrics.Histogram
}

// NewTTASLock allocates a test-and-test-and-set lock.
func NewTTASLock(m *machine.Machine, name string) *TTASLock {
	m.MarkConstruct(name)
	return &TTASLock{
		word: m.Alloc(name+".ttas", 4, 0),
		lat:  m.MetricsHistogram(HistLockAcquire),
	}
}

// FAcquire spins on a cached copy until the word reads free, then races
// the swap, repeating on loss.
func (l *TTASLock) FAcquire(p *machine.Proc) machine.OpStatus {
	p.Call(ttasAcquireStep, l)
	return machine.OpCalled
}

// FRelease clears the lock word (a release: fences first).
func (l *TTASLock) FRelease(p *machine.Proc) machine.OpStatus {
	return fClearWord(p, l.word)
}

// ttasAcquireStep registers: T0 episode start.
func ttasAcquireStep(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	l := f.Obj.(*TTASLock)
	switch f.PC {
	case 0:
		f.T0 = p.Now()
		p.BeginPhase(machine.PhaseLock)
		f.PC = 1
		return p.FSpinUntilEqual(l.word, 0)
	case 1: // observed free: race the swap
		f.PC = 2
		return p.FFetchStore(l.word, 1)
	case 2:
		if p.Ret() == 0 {
			p.EndPhase()
			l.lat.Observe(p.Now() - f.T0)
			return machine.OpDone
		}
		f.PC = 1
		return p.FSpinUntilEqual(l.word, 0)
	}
	panic("constructs: ttasAcquireStep bad pc")
}
