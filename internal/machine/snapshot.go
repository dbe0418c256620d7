package machine

import "fmt"

// Snapshot is a machine between RunProgram phases, recorded as what got
// it there: its configuration, its allocation table, and the programs it
// ran and the Pokes made between them, in order. The simulation is
// deterministic, so replaying that prefix on a machine built the same way
// reproduces the source exactly — clock, event numbering, caches,
// directory, memory, classification and random streams. A snapshot is
// never written through, so a single one can seed any number of
// concurrent forks.
//
// No sweep forks: sweeps memoize whole point results instead.
type Snapshot struct {
	cfg       Config
	allocs    []allocEntry
	blockHome []int8
	replay    []replayStep
}

// replayStep is one entry of a recorded prefix: a RunProgram phase, or
// (prog nil) a Poke made after the first phase.
type replayStep struct {
	prog Program
	addr Addr
	val  uint32
}

// Snapshot records the machine's prefix. The machine must have completed
// at least one RunProgram phase, and no construct may have been built on
// it (see MarkConstruct). The snapshot copies the prefix, so it stays
// valid after the machine is released, reset and reused; it holds the
// programs themselves, so they must not be mutated while it is live.
func (m *Machine) Snapshot() *Snapshot {
	if !m.ran {
		panic("machine: Snapshot before any run; execute the warm-up phase first")
	}
	if m.construct != "" {
		panic(fmt.Sprintf("machine: Snapshot of a machine with construct %q: a replay would drive this machine's construct", m.construct))
	}
	return &Snapshot{
		cfg:       m.cfg,
		allocs:    append([]allocEntry(nil), m.allocs...),
		blockHome: append([]int8(nil), m.blockHome...),
		replay:    append([]replayStep(nil), m.replay...),
	}
}

// RestoreFrom brings m to the snapshot's point by replaying its prefix.
// m must not have run yet, and must be built the way the source was: the
// same structural configuration and behavioural parameters, the same
// allocation table and the same initial Pokes. The caller reruns the
// builder code that produced the source, then restores. Observers attached
// to m watch the replayed prefix as they would have watched the source,
// so an observed fork records exactly what an observed continuation does.
// After RestoreFrom, RunProgram continues the simulation.
//
// Replay is exact only for programs that keep their run state in their
// Frames. A program over objects built on another machine — any construct
// — is outside the contract: the replay would drive the source's objects.
// Snapshot refuses a machine a construct was built on.
func (m *Machine) RestoreFrom(s *Snapshot) {
	if m.ran {
		panic("machine: RestoreFrom on a machine that already ran; Reset it first")
	}
	if keyOf(m.cfg) != keyOf(s.cfg) {
		panic("machine: RestoreFrom structural config mismatch")
	}
	if m.cfg.Protocol != s.cfg.Protocol || m.cfg.CUThreshold != s.cfg.CUThreshold ||
		m.cfg.DisableRetention != s.cfg.DisableRetention ||
		m.cfg.SpinPollCycles != s.cfg.SpinPollCycles {
		panic("machine: RestoreFrom behavioural config mismatch")
	}
	if len(m.blockHome) != len(s.blockHome) || len(m.allocs) != len(s.allocs) {
		panic(fmt.Sprintf("machine: RestoreFrom allocation table mismatch (%d/%d blocks, %d/%d allocs)",
			len(m.blockHome), len(s.blockHome), len(m.allocs), len(s.allocs)))
	}
	for i, e := range m.allocs {
		if e != s.allocs[i] {
			panic(fmt.Sprintf("machine: RestoreFrom allocation %d is %q@%d, snapshot has %q@%d",
				i, e.name, e.base, s.allocs[i].name, s.allocs[i].base))
		}
	}
	for i, h := range m.blockHome {
		if h != s.blockHome[i] {
			panic(fmt.Sprintf("machine: RestoreFrom block %d home is %d, snapshot has %d", i, h, s.blockHome[i]))
		}
	}
	for _, st := range s.replay {
		if st.prog == nil {
			m.Poke(st.addr, st.val)
		} else {
			m.runPhase(st.prog)
		}
	}
}
