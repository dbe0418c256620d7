package constructs

import (
	"fmt"
	"strings"
	"testing"

	"coherencesim/internal/machine"
	"coherencesim/internal/proto"
	"coherencesim/internal/sim"
)

func allProtocols() []proto.Protocol {
	return []proto.Protocol{proto.WI, proto.PU, proto.CU}
}

// lockFactories enumerates the lock implementations under test.
func lockFactories() map[string]func(m *machine.Machine) Lock {
	return map[string]func(m *machine.Machine) Lock{
		"ticket": func(m *machine.Machine) Lock { return NewTicketLock(m, "L") },
		"mcs":    func(m *machine.Machine) Lock { return NewMCSLock(m, "L", false) },
		"ucmcs":  func(m *machine.Machine) Lock { return NewMCSLock(m, "L", true) },
	}
}

// barrierFactories enumerates the barrier implementations under test.
func barrierFactories() map[string]func(m *machine.Machine) Barrier {
	return map[string]func(m *machine.Machine) Barrier{
		"central":       func(m *machine.Machine) Barrier { return NewCentralBarrier(m, "B") },
		"dissemination": func(m *machine.Machine) Barrier { return NewDisseminationBarrier(m, "B") },
		"tree":          func(m *machine.Machine) Barrier { return NewTreeBarrier(m, "B") },
	}
}

func TestLocksMutualExclusionAllProtocols(t *testing.T) {
	for name, mk := range lockFactories() {
		for _, pr := range allProtocols() {
			for _, procs := range []int{1, 2, 4, 8} {
				t.Run(fmt.Sprintf("%s/%v/p%d", name, pr, procs), func(t *testing.T) {
					m := machine.New(machine.DefaultConfig(pr, procs))
					l := mk(m)
					inCS := 0
					perProc := make([]int, procs)
					const iters = 6
					section := critical(l,
						do(func(p *machine.Proc, f *machine.Frame) {
							inCS++
							if inCS != 1 {
								t.Errorf("mutual exclusion violated (%d in CS)", inCS)
							}
						}),
						compute(50),
						do(func(p *machine.Proc, f *machine.Frame) { inCS-- }))
					count := do(func(p *machine.Proc, f *machine.Frame) { perProc[p.ID()]++ })
					m.RunProgram(seq(repeat(iters, append(section, count)...)))
					for i, c := range perProc {
						if c != iters {
							t.Fatalf("proc %d completed %d/%d acquires", i, c, iters)
						}
					}
				})
			}
		}
	}
}

// incrementSlowly is the unprotected read-modify-write the lock tests
// guard: read the counter, dawdle, write it back plus one.
func incrementSlowly(counter machine.Addr) []stage {
	return []stage{
		read(counter),
		func(p *machine.Proc, f *machine.Frame) machine.OpStatus {
			f.U0 = p.Ret()
			return compute(2)(p, f)
		},
		func(p *machine.Proc, f *machine.Frame) machine.OpStatus { return p.FWrite(counter, f.U0+1) },
	}
}

func TestLocksProtectSharedCounter(t *testing.T) {
	for name, mk := range lockFactories() {
		for _, pr := range allProtocols() {
			t.Run(fmt.Sprintf("%s/%v", name, pr), func(t *testing.T) {
				m := machine.New(machine.DefaultConfig(pr, 4))
				l := mk(m)
				shared := m.Alloc("shared", 4, 0)
				const iters = 8
				m.RunProgram(seq(repeat(iters, critical(l, incrementSlowly(shared)...)...)))
				// Read the final value coherently: memory plus any
				// dirty cached copy.
				final := m.Peek(shared)
				for q := 0; q < 4; q++ {
					if ln := m.System().Cache(q).Lookup(uint32(shared / 64)); ln != nil && ln.Dirty {
						final = ln.Data[0]
					}
				}
				if final != 4*iters {
					t.Fatalf("shared counter = %d, want %d", final, 4*iters)
				}
			})
		}
	}
}

func TestTicketLockIsFIFO(t *testing.T) {
	m := machine.New(machine.DefaultConfig(proto.WI, 8))
	l := NewTicketLock(m, "L")
	var order []int
	m.RunProgram(seq(
		// Stagger arrivals so ticket order is the processor order.
		[]stage{computeBy(func(p *machine.Proc) sim.Time { return sim.Time(1 + 500*p.ID()) })},
		critical(l,
			do(func(p *machine.Proc, f *machine.Frame) { order = append(order, p.ID()) }),
			compute(50)),
	))
	for i, id := range order {
		if id != i {
			t.Fatalf("service order %v not FIFO", order)
		}
	}
}

func TestMCSQueueHandoffOrder(t *testing.T) {
	m := machine.New(machine.DefaultConfig(proto.WI, 8))
	l := NewMCSLock(m, "L", false)
	var order []int
	m.RunProgram(seq(
		[]stage{computeBy(func(p *machine.Proc) sim.Time { return sim.Time(1 + 800*p.ID()) })},
		critical(l,
			do(func(p *machine.Proc, f *machine.Frame) { order = append(order, p.ID()) }),
			compute(50)),
	))
	if len(order) != 8 {
		t.Fatalf("only %d acquisitions", len(order))
	}
	for i, id := range order {
		if id != i {
			t.Fatalf("handoff order %v not queue order", order)
		}
	}
}

func TestUpdateConsciousMCSFlushes(t *testing.T) {
	m := machine.New(machine.DefaultConfig(proto.PU, 4))
	l := NewMCSLock(m, "L", true)
	res := m.RunProgram(seq(repeat(5, critical(l, compute(50))...)))
	if res.Counters.Flushes == 0 {
		t.Fatal("update-conscious MCS issued no flushes")
	}
	// Plain MCS must issue none.
	m2 := machine.New(machine.DefaultConfig(proto.PU, 4))
	l2 := NewMCSLock(m2, "L", false)
	res2 := m2.RunProgram(seq(repeat(5, critical(l2, compute(50))...)))
	if res2.Counters.Flushes != 0 {
		t.Fatal("plain MCS issued flushes")
	}
}

func TestUpdateConsciousMCSCutsUpdateTraffic(t *testing.T) {
	run := func(uc bool) uint64 {
		m := machine.New(machine.DefaultConfig(proto.PU, 8))
		l := NewMCSLock(m, "L", uc)
		res := m.RunProgram(seq(repeat(20, critical(l, compute(50))...)))
		return res.Updates.Total()
	}
	plain, conscious := run(false), run(true)
	if conscious >= plain {
		t.Fatalf("update-conscious MCS sent %d updates, plain %d; expected a reduction", conscious, plain)
	}
}

func TestBarriersJoinAllProtocolsAndSizes(t *testing.T) {
	for name, mk := range barrierFactories() {
		for _, pr := range allProtocols() {
			for _, procs := range []int{1, 2, 3, 4, 8, 16} {
				t.Run(fmt.Sprintf("%s/%v/p%d", name, pr, procs), func(t *testing.T) {
					m := machine.New(machine.DefaultConfig(pr, procs))
					b := mk(m)
					const episodes = 5
					arrived := make([]int, episodes)
					m.RunProgram(seq(repeat(episodes,
						computeBy(func(p *machine.Proc) sim.Time { return sim.Time(p.Rand().Intn(40) + 1) }),
						func(p *machine.Proc, f *machine.Frame) machine.OpStatus {
							arrived[f.I0]++
							return b.FWait(p)
						},
						do(func(p *machine.Proc, f *machine.Frame) {
							if arrived[f.I0] != procs {
								t.Errorf("episode %d: left with %d/%d arrived", f.I0, arrived[f.I0], procs)
							}
						}),
					)))
				})
			}
		}
	}
}

func TestBarrierPublishesData(t *testing.T) {
	// Data written before a barrier must be readable by all after it.
	for name, mk := range barrierFactories() {
		for _, pr := range allProtocols() {
			t.Run(fmt.Sprintf("%s/%v", name, pr), func(t *testing.T) {
				procs := 8
				m := machine.New(machine.DefaultConfig(pr, procs))
				b := mk(m)
				data := m.Alloc("data", 64*procs, -1)
				slot := func(i int) machine.Addr { return data + machine.Addr(64*i) }
				m.RunProgram(seq(repeat(3,
					func(p *machine.Proc, f *machine.Frame) machine.OpStatus {
						return p.FWrite(slot(p.ID()), uint32(100*f.I0+p.ID()))
					},
					wait(b),
					func(p *machine.Proc, f *machine.Frame) machine.OpStatus {
						return p.FRead(slot((p.ID() + 1) % procs))
					},
					func(p *machine.Proc, f *machine.Frame) machine.OpStatus {
						peer := (p.ID() + 1) % procs
						if got := p.Ret(); got != uint32(100*f.I0+peer) {
							t.Errorf("ep %d: proc %d read peer %d = %d", f.I0, p.ID(), peer, got)
						}
						return b.FWait(p)
					},
				)))
			})
		}
	}
}

func TestCeilLog2(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 32: 5, 33: 6, 64: 6}
	for n, want := range cases {
		if got := ceilLog2(n); got != want {
			t.Errorf("ceilLog2(%d) = %d, want %d", n, got, want)
		}
	}
}

// maxEpisodes is four reduction episodes, each followed by a check of
// the global result and a barrier that keeps the episodes separated.
func maxEpisodes(r Reducer, b Barrier, procs int, wrong *bool) machine.Steps {
	return seq(repeat(4,
		func(p *machine.Proc, f *machine.Frame) machine.OpStatus {
			return r.FReduce(p, uint32(1000*f.I0+10*p.ID()+5))
		},
		read(r.ResultAddr()),
		func(p *machine.Proc, f *machine.Frame) machine.OpStatus {
			if p.Ret() != uint32(1000*f.I0+10*(procs-1)+5) {
				*wrong = true
			}
			return b.FWait(p)
		},
	))
}

func TestReducersComputeMax(t *testing.T) {
	for _, pr := range allProtocols() {
		for _, procs := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%v/p%d", pr, procs), func(t *testing.T) {
				// Parallel reducer with magic sync.
				m := machine.New(machine.DefaultConfig(pr, procs))
				pl := m.NewMagicLock()
				pb := m.NewMagicBarrier()
				r := NewParallelReducer(m, "R", pl, pb)
				wrong := false
				m.RunProgram(maxEpisodes(r, pb, procs, &wrong))
				if wrong {
					t.Error("parallel reduction produced wrong max")
				}

				// Sequential reducer with magic sync.
				m2 := machine.New(machine.DefaultConfig(pr, procs))
				sb := m2.NewMagicBarrier()
				r2 := NewSequentialReducer(m2, "R", sb)
				wrong2 := false
				m2.RunProgram(maxEpisodes(r2, sb, procs, &wrong2))
				if wrong2 {
					t.Error("sequential reduction produced wrong max")
				}
			})
		}
	}
}

func TestReducersWithRealSync(t *testing.T) {
	// Reductions also work with the real constructs as sync providers.
	m := machine.New(machine.DefaultConfig(proto.WI, 4))
	l := NewTicketLock(m, "L")
	b := NewDisseminationBarrier(m, "B")
	r := NewParallelReducer(m, "R", l, b)
	bad := false
	m.RunProgram(machine.Steps{
		func(p *machine.Proc, f *machine.Frame) machine.OpStatus { return r.FReduce(p, uint32(7+p.ID())) },
		read(r.ResultAddr()),
		do(func(p *machine.Proc, f *machine.Frame) {
			if p.Ret() != 10 {
				bad = true
			}
		}),
	})
	if bad {
		t.Fatal("reduction with real lock/barrier wrong")
	}
}

func TestSequentialReducerSlotPlacement(t *testing.T) {
	m := machine.New(machine.DefaultConfig(proto.PU, 4))
	b := m.NewMagicBarrier()
	r := NewSequentialReducer(m, "R", b)
	for i := 0; i < 4; i++ {
		a := r.slots[i]
		if home := m.System().HomeOf(uint32(a / 64)); home != i {
			t.Errorf("slot %d homed at %d", i, home)
		}
		for j := i + 1; j < 4; j++ {
			if uint32(a/64) == uint32(r.slots[j]/64) {
				t.Errorf("slots %d and %d share a block", i, j)
			}
		}
	}
}

// TestConstructsRefuseSnapshot builds each construct on a machine of its
// own and checks that Snapshot then refuses the machine, naming the
// construct: a replayed program would drive the source's construct.
func TestConstructsRefuseSnapshot(t *testing.T) {
	for name, build := range map[string]func(*machine.Machine){
		"ticket":        func(m *machine.Machine) { NewTicketLock(m, "ticket") },
		"mcs":           func(m *machine.Machine) { NewMCSLock(m, "mcs", false) },
		"tas":           func(m *machine.Machine) { NewTASLock(m, "tas") },
		"ttas":          func(m *machine.Machine) { NewTTASLock(m, "ttas") },
		"central":       func(m *machine.Machine) { NewCentralBarrier(m, "central") },
		"dissemination": func(m *machine.Machine) { NewDisseminationBarrier(m, "dissemination") },
		"tree":          func(m *machine.Machine) { NewTreeBarrier(m, "tree") },
		"parallel":      func(m *machine.Machine) { NewParallelReducer(m, "parallel", nil, nil) },
		"sequential":    func(m *machine.Machine) { NewSequentialReducer(m, "sequential", nil) },
	} {
		m := machine.New(machine.DefaultConfig(proto.WI, 4))
		build(m)
		m.RunProgram(seq([]stage{compute(1)}))
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, fmt.Sprintf("construct %q", name)) {
					t.Errorf("%s: Snapshot panicked with %q, want a refusal naming the construct", name, msg)
				}
			}()
			m.Snapshot()
		}()
	}
}

func TestConstructsDeterministic(t *testing.T) {
	run := func() sim.Time {
		m := machine.New(machine.DefaultConfig(proto.CU, 8))
		l := NewMCSLock(m, "L", false)
		b := NewTreeBarrier(m, "B")
		res := m.RunProgram(seq(repeat(10, append(critical(l, compute(50)), wait(b))...)))
		return res.Cycles
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}
