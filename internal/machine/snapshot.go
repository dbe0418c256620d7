package machine

import (
	"fmt"

	"coherencesim/internal/classify"
	"coherencesim/internal/proto"
	"coherencesim/internal/sim"
)

// Snapshot is a deep copy of a machine's complete simulation state at
// quiescence: everything needed to continue the run on a different
// Machine as if it had executed the captured prefix itself. Snapshots
// are immutable once taken — RestoreFrom never writes through one — so
// a single snapshot can seed any number of concurrent forks.
//
// A snapshot holds the simulation only. The observers a Config can
// attach (Metrics, Timeline, Txn, Trace) are refused on both ends of a
// fork: no caller forks an observed machine, and a two-phase run keeps
// its observers by continuing on one machine instead.
//
// workload.WarmLockLoop uses this to run a warm-up phase once, snapshot,
// and fork any number of measurement runs from the checkpoint. Sweeps
// do not: they memoize whole point results instead.
type Snapshot struct {
	cfg       Config
	nextBlock uint32
	blockHome []int8
	allocs    []allocEntry
	engine    sim.EngineState
	cl        classify.State
	sys       *proto.SystemState
	procs     []procSnap
	fork      []forkSnap
}

// procSnap is one processor's durable register state. Everything else a
// Proc holds is either built-once plumbing (callbacks, task identity)
// or transient execution state asserted empty at quiescence.
type procSnap struct {
	stats    ProcStats
	rngDraws uint64
	opDone   bool
	opVal    uint32
	ret      uint32
}

// forkSnap is one registered construct's captured Go-side state.
type forkSnap struct {
	name string
	st   any
}

// assertQuiescent panics unless the processor is fully between
// operations: nothing buffered, nothing pending, no frame live.
func (p *Proc) assertQuiescent(op string) {
	switch {
	case !p.wb.Empty():
		panic(fmt.Sprintf("machine: %s with proc %d write buffer non-empty", op, p.id))
	case p.waiting != waitNone:
		panic(fmt.Sprintf("machine: %s with proc %d waiting (%d)", op, p.id, p.waiting))
	case p.pending != 0:
		panic(fmt.Sprintf("machine: %s with proc %d holding %d pending cycles", op, p.id, p.pending))
	case len(p.phase) != 0:
		panic(fmt.Sprintf("machine: %s with proc %d inside a synchronization phase", op, p.id))
	case p.fp != -1:
		panic(fmt.Sprintf("machine: %s with proc %d frame stack live (fp=%d)", op, p.id, p.fp))
	case p.wokenFrom != waitNone:
		panic(fmt.Sprintf("machine: %s with proc %d carrying a wake reason", op, p.id))
	}
}

// snapshotState captures the processor's durable registers.
func (p *Proc) snapshotState() procSnap {
	p.assertQuiescent("Snapshot")
	return procSnap{
		stats:    p.stats,
		rngDraws: p.rngDraws(),
		opDone:   p.opDone,
		opVal:    p.opVal,
		ret:      p.ret,
	}
}

// restoreState loads a processor snapshot. The random stream is
// repositioned by reseeding and discarding the captured number of
// source draws, so a fork's stream continues exactly where the captured
// run's left off; a stream at zero draws on both sides is left alone.
func (p *Proc) restoreState(st *procSnap) {
	p.assertQuiescent("RestoreFrom")
	p.stats = st.stats
	p.opDone = st.opDone
	p.opVal = st.opVal
	p.ret = st.ret
	if st.rngDraws == 0 && p.rngDraws() == 0 {
		return
	}
	p.Rand().Seed(procSeed(p.id))
	for i := uint64(0); i < st.rngDraws; i++ {
		p.rngSrc.src.Uint64()
	}
	p.rngSrc.draws = st.rngDraws
}

// assertUnobserved panics, naming the observer, if the machine has one
// attached: a fork carries the simulation, not what watches it.
func (m *Machine) assertUnobserved(op string) {
	var name string
	switch {
	case m.cfg.Metrics != nil:
		name = "Metrics"
	case m.cfg.Timeline != nil:
		name = "Timeline"
	case m.cfg.Txn != nil:
		name = "Txn"
	case m.cfg.Trace != nil:
		name = "Trace"
	default:
		return
	}
	panic(fmt.Sprintf("machine: %s with Config.%s attached; forks carry no observers", op, name))
}

// Snapshot captures the machine's complete simulation state. The machine
// must have completed at least one RunProgram phase (snapshots are taken
// between phases, at quiescence) and have no observer attached.
func (m *Machine) Snapshot() *Snapshot {
	if !m.ran {
		panic("machine: Snapshot before any run; execute the warm-up phase first")
	}
	m.assertUnobserved("Snapshot")
	s := &Snapshot{
		cfg:       m.cfg,
		nextBlock: m.nextBlock,
		blockHome: append([]int8(nil), m.blockHome...),
		allocs:    append([]allocEntry(nil), m.allocs...),
		engine:    m.e.SnapshotState(),
		cl:        m.cl.SnapshotState(),
		sys:       m.sys.SnapshotState(),
		procs:     make([]procSnap, len(m.procs)),
		fork:      make([]forkSnap, len(m.forkState)),
	}
	for i, p := range m.procs {
		s.procs[i] = p.snapshotState()
	}
	for i, nf := range m.forkState {
		s.fork[i] = forkSnap{name: nf.name, st: nf.fs.SnapshotState()}
	}
	return s
}

// RestoreFrom loads a snapshot into m, which must be freshly built (or
// Reset) with the snapshot source's structural configuration, the same
// behavioural parameters, no observer attached, the same allocation
// table, and the same constructs registered in the same order — i.e.
// the caller reruns the builder code that produced the source, then
// restores. After RestoreFrom the machine is mid-run: RunProgram
// continues the simulation from the captured point. The snapshot itself
// is never written through, so concurrent forks may share one.
func (m *Machine) RestoreFrom(s *Snapshot) {
	if m.ran {
		panic("machine: RestoreFrom on a machine that already ran; Reset it first")
	}
	m.assertUnobserved("RestoreFrom")
	if keyOf(m.cfg) != keyOf(s.cfg) {
		panic("machine: RestoreFrom structural config mismatch")
	}
	if m.cfg.Protocol != s.cfg.Protocol || m.cfg.CUThreshold != s.cfg.CUThreshold ||
		m.cfg.DisableRetention != s.cfg.DisableRetention ||
		m.cfg.SpinPollCycles != s.cfg.SpinPollCycles ||
		m.cfg.MagicSyncCycles != s.cfg.MagicSyncCycles {
		panic("machine: RestoreFrom behavioural config mismatch")
	}
	if m.nextBlock != s.nextBlock || len(m.allocs) != len(s.allocs) {
		panic(fmt.Sprintf("machine: RestoreFrom allocation table mismatch (%d/%d blocks, %d/%d allocs)",
			m.nextBlock, s.nextBlock, len(m.allocs), len(s.allocs)))
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
	if len(m.forkState) != len(s.fork) {
		panic(fmt.Sprintf("machine: RestoreFrom construct state mismatch (%d registered, snapshot has %d)",
			len(m.forkState), len(s.fork)))
	}
	for i, nf := range m.forkState {
		if nf.name != s.fork[i].name {
			panic(fmt.Sprintf("machine: RestoreFrom construct %d is %q, snapshot has %q", i, nf.name, s.fork[i].name))
		}
	}
	m.ensureProcs()
	m.e.RestoreState(s.engine)
	m.cl.RestoreState(s.cl)
	m.sys.RestoreState(s.sys)
	for i, p := range m.procs {
		p.restoreState(&s.procs[i])
	}
	for i, nf := range m.forkState {
		nf.fs.RestoreState(s.fork[i].st)
	}
	m.ran = true
}
