package constructs

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"coherencesim/internal/machine"
	"coherencesim/internal/metrics"
	"coherencesim/internal/proto"
	"coherencesim/internal/sim"
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
					section := critical(l,
						do(func(p *machine.Proc, f *machine.Frame) {
							inCS++
							if inCS != 1 {
								t.Errorf("mutual exclusion violated")
							}
						}),
						compute(50),
						do(func(p *machine.Proc, f *machine.Frame) { inCS-- }))
					count := do(func(p *machine.Proc, f *machine.Frame) { done[p.ID()]++ })
					m.RunProgram(seq(repeat(5, append(section, count)...)))
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
				m.RunProgram(seq(repeat(6, critical(l, incrementSlowly(shared)...)...)))
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
		res := m.RunProgram(seq(repeat(20, critical(l, compute(50))...)))
		return res.Net.Messages, res.Cycles
	}
	naiveMsgs, naiveCycles := run(func(m *machine.Machine) Lock {
		l := NewTASLock(m, "L")
		l.minBackoff, l.maxBackoff = 1, 2
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

// frozenResults loads testdata/frozen_results.txt: one "case digest" line
// per reference run. The digests were produced once, at the last commit
// that still had an imperative Acquire/Release/Wait/Reduce beside every
// step function, by running those methods on the closure model — so the
// step functions are held to an implementation that no longer exists in
// the tree.
func frozenResults(t *testing.T) map[string]string {
	t.Helper()
	doc, err := os.ReadFile("testdata/frozen_results.txt")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(doc)), "\n") {
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed frozen row %q", line)
		}
		rows[name] = digest
	}
	return rows
}

// checkFrozen compares the digest of the full Result — cycles, events,
// per-processor stats, traffic, and (through the attached registry and
// tracer) the latency histograms and the per-phase stall attribution —
// with the frozen row.
func checkFrozen(t *testing.T, rows map[string]string, name string, r machine.Result) {
	t.Helper()
	doc, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := rows[name]
	if !ok {
		t.Fatalf("no frozen row %q", name)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(doc)); got != want {
		t.Errorf("%s: Result digest %s, frozen reference %s", name, got, want)
	}
}

// observedMachine builds a machine with the metrics registry and the
// transaction tracer attached, as every frozen row was recorded.
func observedMachine(pr proto.Protocol, procs int, poll uint64) *machine.Machine {
	cfg := machine.DefaultConfig(pr, procs)
	cfg.SpinPollCycles = poll
	cfg.Metrics = metrics.New(1000)
	cfg.Txn = trace.NewTracer(procs, 0)
	return machine.New(cfg)
}

var frozenSizes = []int{1, 2, 8, 32}

// TestLockStepsMatchImperative holds every lock's step functions to the
// frozen result of its imperative methods on the same
// acquire/hold/release loop.
func TestLockStepsMatchImperative(t *testing.T) {
	variants := []struct {
		name string
		poll uint64
		mk   func(m *machine.Machine) Lock
	}{
		{"tas", 0, func(m *machine.Machine) Lock { return NewTASLock(m, "L") }},
		{"tas-nobackoff", 0, func(m *machine.Machine) Lock {
			l := NewTASLock(m, "L")
			l.minBackoff, l.maxBackoff = 1, 1
			return l
		}},
		{"ttas", 0, func(m *machine.Machine) Lock { return NewTTASLock(m, "L") }},
		{"ttas-polling", 30, func(m *machine.Machine) Lock { return NewTTASLock(m, "L") }},
		{"ticket", 0, func(m *machine.Machine) Lock { return NewTicketLock(m, "L") }},
		{"mcs", 0, func(m *machine.Machine) Lock { return NewMCSLock(m, "L", false) }},
		{"ucmcs", 0, func(m *machine.Machine) Lock { return NewMCSLock(m, "L", true) }},
	}
	rows := frozenResults(t)
	for _, v := range variants {
		for _, pr := range allProtocols() {
			for _, procs := range frozenSizes {
				name := fmt.Sprintf("%s/%v/p%d", v.name, pr, procs)
				t.Run(name, func(t *testing.T) {
					m := observedMachine(pr, procs, v.poll)
					l := v.mk(m)
					checkFrozen(t, rows, "lock/"+name, m.RunProgram(seq(repeat(6, critical(l, compute(50))...))))
				})
			}
		}
	}
}

// TestBarrierStepsMatchFrozen: each processor publishes a word, computes
// for a processor-dependent time, and joins the barrier, six times.
func TestBarrierStepsMatchFrozen(t *testing.T) {
	variants := []struct {
		name string
		poll uint64
		mk   func(m *machine.Machine) Barrier
	}{
		{"central", 0, func(m *machine.Machine) Barrier { return NewCentralBarrier(m, "B") }},
		{"central-polling", 30, func(m *machine.Machine) Barrier { return NewCentralBarrier(m, "B") }},
		{"dissemination", 0, func(m *machine.Machine) Barrier { return NewDisseminationBarrier(m, "B") }},
		{"tree", 0, func(m *machine.Machine) Barrier { return NewTreeBarrier(m, "B") }},
	}
	rows := frozenResults(t)
	for _, v := range variants {
		for _, pr := range allProtocols() {
			for _, procs := range frozenSizes {
				m := observedMachine(pr, procs, v.poll)
				b := v.mk(m)
				data := m.Alloc("data", 64*procs, -1)
				checkFrozen(t, rows, fmt.Sprintf("barrier/%s/%v/p%d", v.name, pr, procs), m.RunProgram(seq(repeat(6,
					func(p *machine.Proc, f *machine.Frame) machine.OpStatus {
						return p.FWrite(data+machine.Addr(64*p.ID()), uint32(f.I0))
					},
					computeBy(func(p *machine.Proc) sim.Time { return sim.Time(1 + 13*p.ID()) }),
					wait(b),
				))))
			}
		}
	}
}

// TestReducerStepsMatchFrozen: four reduction episodes, each followed by
// a read of the result and the barrier that separates episodes. Both
// reducers run over the magic primitives and over real constructs.
func TestReducerStepsMatchFrozen(t *testing.T) {
	variants := []struct {
		name string
		mk   func(m *machine.Machine) (Reducer, Barrier)
	}{
		{"parallel-magic", func(m *machine.Machine) (Reducer, Barrier) {
			b := m.NewMagicBarrier()
			return NewParallelReducer(m, "R", m.NewMagicLock(), b), b
		}},
		{"sequential-magic", func(m *machine.Machine) (Reducer, Barrier) {
			b := m.NewMagicBarrier()
			return NewSequentialReducer(m, "R", b), b
		}},
		{"parallel-mcs-dissemination", func(m *machine.Machine) (Reducer, Barrier) {
			b := NewDisseminationBarrier(m, "B")
			return NewParallelReducer(m, "R", NewMCSLock(m, "L", false), b), b
		}},
		{"sequential-tree", func(m *machine.Machine) (Reducer, Barrier) {
			b := NewTreeBarrier(m, "B")
			return NewSequentialReducer(m, "R", b), b
		}},
	}
	rows := frozenResults(t)
	for _, v := range variants {
		for _, pr := range allProtocols() {
			for _, procs := range frozenSizes {
				m := observedMachine(pr, procs, 0)
				r, b := v.mk(m)
				checkFrozen(t, rows, fmt.Sprintf("reducer/%s/%v/p%d", v.name, pr, procs), m.RunProgram(seq(repeat(4,
					func(p *machine.Proc, f *machine.Frame) machine.OpStatus {
						return r.FReduce(p, uint32(1000*f.I0+10*p.ID()+5))
					},
					read(r.ResultAddr()),
					wait(b),
				))))
			}
		}
	}
}
