package constructs

import (
	"fmt"
	"reflect"
	"testing"

	"coherencesim/internal/machine"
	"coherencesim/internal/metrics"
	"coherencesim/internal/proto"
	"coherencesim/internal/trace"
)

func extraLockFactories() map[string]func(m *machine.Machine) Lock {
	return map[string]func(m *machine.Machine) Lock{
		"tas":  func(m *machine.Machine) Lock { return NewTASLock(m, "L") },
		"ttas": func(m *machine.Machine) Lock { return NewTTASLock(m, "L") },
	}
}

func TestExtraLocksMutualExclusion(t *testing.T) {
	for name, mk := range extraLockFactories() {
		for _, pr := range allProtocols() {
			for _, procs := range []int{1, 2, 8} {
				t.Run(fmt.Sprintf("%s/%v/p%d", name, pr, procs), func(t *testing.T) {
					m := machine.New(machine.DefaultConfig(pr, procs))
					l := mk(m)
					inCS := 0
					done := make([]int, procs)
					m.Run(func(p *machine.Proc) {
						for i := 0; i < 5; i++ {
							l.Acquire(p)
							inCS++
							if inCS != 1 {
								t.Errorf("mutual exclusion violated")
							}
							p.Compute(50)
							inCS--
							l.Release(p)
							done[p.ID()]++
						}
					})
					for i, c := range done {
						if c != 5 {
							t.Fatalf("proc %d finished %d/5", i, c)
						}
					}
				})
			}
		}
	}
}

func TestExtraLocksProtectCounter(t *testing.T) {
	for name, mk := range extraLockFactories() {
		for _, pr := range allProtocols() {
			t.Run(fmt.Sprintf("%s/%v", name, pr), func(t *testing.T) {
				m := machine.New(machine.DefaultConfig(pr, 4))
				l := mk(m)
				shared := m.Alloc("shared", 4, 0)
				m.Run(func(p *machine.Proc) {
					for i := 0; i < 6; i++ {
						l.Acquire(p)
						v := p.Read(shared)
						p.Compute(2)
						p.Write(shared, v+1)
						l.Release(p)
					}
				})
				final := m.Peek(shared)
				for q := 0; q < 4; q++ {
					if ln := m.System().Cache(q).Lookup(uint32(shared / 64)); ln != nil && ln.Dirty {
						final = ln.Data[0]
					}
				}
				if final != 24 {
					t.Fatalf("counter = %d, want 24", final)
				}
			})
		}
	}
}

func TestTASFamilyContentionBehaviour(t *testing.T) {
	// Two classic results, reproduced under WI at 16 processors:
	// exponential backoff cuts the naive TAS lock's message traffic, and
	// TTAS — whose waiters spin in their caches instead of hammering the
	// lock word with ownership-stealing swaps — completes the contended
	// run much faster than naive TAS even though its post-release
	// thundering herd sends a similar number of messages.
	run := func(mk func(m *machine.Machine) Lock) (msgs, cycles uint64) {
		m := machine.New(machine.DefaultConfig(proto.WI, 16))
		l := mk(m)
		res := m.Run(func(p *machine.Proc) {
			for i := 0; i < 20; i++ {
				l.Acquire(p)
				p.Compute(50)
				l.Release(p)
			}
		})
		return res.Net.Messages, res.Cycles
	}
	naiveMsgs, naiveCycles := run(func(m *machine.Machine) Lock {
		l := NewTASLock(m, "L")
		l.SetBackoff(1, 2)
		return l
	})
	backoffMsgs, _ := run(func(m *machine.Machine) Lock { return NewTASLock(m, "L") })
	_, ttasCycles := run(func(m *machine.Machine) Lock { return NewTTASLock(m, "L") })
	if backoffMsgs >= naiveMsgs {
		t.Fatalf("exponential backoff (%d msgs) did not quiet TAS (naive %d)", backoffMsgs, naiveMsgs)
	}
	if ttasCycles*3 >= naiveCycles*2 {
		t.Fatalf("TTAS (%d cycles) not clearly faster than naive TAS (%d)", ttasCycles, naiveCycles)
	}
}

func TestTASBackoffValidation(t *testing.T) {
	m := machine.New(machine.DefaultConfig(proto.WI, 2))
	l := NewTASLock(m, "L")
	defer func() {
		if recover() == nil {
			t.Error("invalid backoff window did not panic")
		}
	}()
	l.SetBackoff(10, 5)
}

// lockLoopProg is the acquire/hold/release loop as a Program — the same
// body as workload's lock loop, which cannot be imported from here
// (workload imports this package). Registers: I0 iteration.
type lockLoopProg struct {
	l     ProgramLock
	iters int
}

func (g *lockLoopProg) Step(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	switch f.PC {
	case 0:
		if f.I0 >= g.iters {
			return machine.OpDone
		}
		f.PC = 1
		return g.l.FAcquire(p)
	case 1:
		f.PC = 2
		if !p.FCompute(50) {
			return machine.OpBlocked
		}
		fallthrough
	case 2:
		f.I0++
		f.PC = 0
		return g.l.FRelease(p)
	}
	panic("lockLoopProg bad pc")
}

// TestLockStepsMatchImperative holds every lock's step functions to its
// imperative methods: the same loop run as a closure and as a Program
// must produce the same Result — cycles, events, per-processor stats,
// traffic, and (through the attached registry and tracer) the
// acquire-latency histogram and the per-phase stall attribution — and
// the Program run must never hand off to a goroutine.
func TestLockStepsMatchImperative(t *testing.T) {
	variants := []struct {
		name string
		poll uint64
		mk   func(m *machine.Machine) ProgramLock
	}{
		{"tas", 0, func(m *machine.Machine) ProgramLock { return NewTASLock(m, "L") }},
		{"tas-nobackoff", 0, func(m *machine.Machine) ProgramLock {
			l := NewTASLock(m, "L")
			l.SetBackoff(1, 1)
			return l
		}},
		{"ttas", 0, func(m *machine.Machine) ProgramLock { return NewTTASLock(m, "L") }},
		{"ttas-polling", 30, func(m *machine.Machine) ProgramLock { return NewTTASLock(m, "L") }},
		{"ticket", 0, func(m *machine.Machine) ProgramLock { return NewTicketLock(m, "L") }},
		{"mcs", 0, func(m *machine.Machine) ProgramLock { return NewMCSLock(m, "L", false) }},
		{"ucmcs", 0, func(m *machine.Machine) ProgramLock { return NewMCSLock(m, "L", true) }},
	}
	const iters = 6
	for _, v := range variants {
		for _, pr := range allProtocols() {
			for _, procs := range []int{1, 2, 8, 32} {
				t.Run(fmt.Sprintf("%s/%v/p%d", v.name, pr, procs), func(t *testing.T) {
					build := func() (*machine.Machine, ProgramLock) {
						cfg := machine.DefaultConfig(pr, procs)
						cfg.SpinPollCycles = v.poll
						cfg.Metrics = metrics.New(1000)
						cfg.Txn = trace.NewTracer(procs, 0)
						m := machine.New(cfg)
						return m, v.mk(m)
					}
					m1, l1 := build()
					closure := m1.Run(func(p *machine.Proc) {
						for i := 0; i < iters; i++ {
							l1.Acquire(p)
							p.Compute(50)
							l1.Release(p)
						}
					})
					m2, l2 := build()
					program := m2.RunProgram(&lockLoopProg{l: l2, iters: iters})
					if !reflect.DeepEqual(closure, program) {
						t.Errorf("results differ\nclosure: %+v\nprogram: %+v", closure, program)
					}
					if h := m2.Engine().Handoffs(); h != 0 {
						t.Errorf("program run performed %d goroutine hand-offs, want 0", h)
					}
				})
			}
		}
	}
}
