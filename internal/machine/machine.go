// Package machine assembles the full simulated multiprocessor — engine,
// mesh, memories, caches, coherence system, classifier — and exposes the
// simulated-processor programming model that workloads are written
// against: FRead, FWrite, FFetchAdd, FFetchStore, FCompareSwap, FFlush,
// FCompute, FFence, and spin-wait primitives.
//
// A workload is a Program: a resumable step function that every
// simulated processor runs and that the event engine re-enters by
// direct call, all on the caller's goroutine, so simulations are
// deterministic and race-free. Cycle accounting follows the paper:
// every instruction and read hit costs one cycle, read misses stall the
// processor, writes enter a 4-entry write buffer in one cycle (stalling
// only when it is full), reads bypass buffered writes with value
// forwarding, and atomic instructions drain the write buffer first.
package machine

import (
	"fmt"

	"coherencesim/internal/cache"
	"coherencesim/internal/classify"
	"coherencesim/internal/mesh"
	"coherencesim/internal/metrics"
	"coherencesim/internal/proto"
	"coherencesim/internal/sim"
	"coherencesim/internal/trace"
)

// Addr is a byte address in the simulated shared segment.
type Addr = cache.Addr

// Config parameterizes a simulated machine: the coherence system's
// parameters (proto.Config, embedded, so its fields are the machine's)
// and the three the processors alone read. The embedded observers are
// the machine's too. RunProgram folds Metrics' snapshot into
// Result.Metrics, and Txn's stall attribution (each processor stall
// charged to the transaction that released it) into Result.Breakdown; a
// tracer built with StoreRecords also keeps the spans and stalls that
// trace.WriteTimeline exports. Both are keyed purely to simulated time,
// so enabling either never perturbs the simulation, and their reports
// are byte-identical at any experiment worker count and across machine
// reuse.
type Config struct {
	proto.Config
	Procs int
	// SpinPollCycles selects the spin-wait model: 0 (default) compresses
	// spins — the processor parks and is woken by coherence events on
	// the watched block; a positive value instead re-reads every that
	// many cycles, modeling an explicit uncompressed polling loop
	// (ablation studies; both models generate identical traffic).
	SpinPollCycles sim.Time
	// Trace, when non-nil, records every processor-level operation into
	// the given ring buffer for post-mortem inspection.
	Trace *trace.Log
}

// The paper's fixed machine parameters.
const (
	// wbEntries is each processor's write-buffer depth.
	wbEntries = 4
	// magicSyncLatency is the fixed latency charged by the zero-traffic
	// lock and barrier used in the reduction experiments.
	magicSyncLatency sim.Time = 2
)

// DefaultConfig returns the paper's machine parameters.
func DefaultConfig(protocol proto.Protocol, procs int) Config {
	return Config{Config: proto.DefaultConfig(protocol), Procs: procs}
}

// Result summarizes one simulation run.
type Result struct {
	Cycles   sim.Time              // simulated execution time
	Misses   classify.MissCounts   // categorized cache misses
	Updates  classify.UpdateCounts // categorized update messages
	Counters proto.Counters        // raw protocol transaction counts
	Net      mesh.Stats            // network traffic
	// References counts shared-data references; the paper computes miss
	// rates solely with respect to them.
	References uint64
	// MissRate is misses per shared reference.
	MissRate float64
	// SimEvents is the number of engine events the run processed
	// (simulator performance, not a property of the modeled machine).
	SimEvents uint64
	// PerProc is each processor's time/activity breakdown (omitted from
	// equality-sensitive comparisons of Result values by keeping it a
	// slice; compare it explicitly when needed).
	PerProc []ProcStats
	// Metrics is the observability snapshot of the run, non-nil only
	// when Config.Metrics was set.
	Metrics *metrics.Snapshot
	// Breakdown is the stall-attribution breakdown of the run, non-nil
	// only when Config.Txn was set.
	Breakdown *trace.BreakdownSnapshot
	// Nodes is each node's load, non-nil only when the caller read
	// NodeLoads into it (omitted when nil, so earlier digests hold).
	Nodes []NodeLoad `json:",omitempty"`
}

// NodeLoad is one node's share of a run's resource contention: the
// flits its network interface injected and received (loopback
// deliveries do not count) and its memory module's busy cycles.
type NodeLoad struct {
	Flits   uint64 `json:"flits"`
	MemBusy uint64 `json:"mem_busy"`
}

// NodeLoads reports every node's load accumulated so far.
func (m *Machine) NodeLoads() []NodeLoad {
	nw := m.sys.Network()
	out := make([]NodeLoad, m.cfg.Procs)
	for i := range out {
		o, in := nw.NodeFlits(i)
		out[i] = NodeLoad{Flits: o + in, MemBusy: m.sys.Memory(i).Stats().BusyCycles}
	}
	return out
}

// SimulatedCycles reports the run's simulated execution time for
// aggregate-throughput accounting (the runner pool's CycleReporter).
func (r Result) SimulatedCycles() uint64 { return r.Cycles }

// Machine is one simulated multiprocessor. Allocate shared data with
// Alloc, initialize it with Poke, then execute a workload with
// RunProgram. A Machine runs one workload (in one or more RunProgram
// phases); Reset it or build a fresh Machine per run.
type Machine struct {
	e   *sim.Engine
	cl  *classify.Classifier
	sys *proto.System
	cfg Config
	met machMetrics

	// blockHome is the home node of every allocated block, indexed by
	// block number. The allocator hands out blocks contiguously from 0,
	// so len(blockHome) == nextBlock always; blocks beyond it (never
	// allocated) interleave by block number.
	nextBlock uint32
	blockHome []int8
	allocs    []allocEntry

	procs []*Proc
	ran   bool

	// replay is what the machine did after it was built, in order: each
	// RunProgram phase and each Poke made after the first phase. It is
	// the prefix a Snapshot records and RestoreFrom replays.
	replay []replayStep

	// construct names the first construct built on the machine; Snapshot
	// refuses a machine with one (see MarkConstruct).
	construct string

	// txnBusy records the per-processor busy cycles already folded into
	// the transaction tracer, so runPhase can feed the tracer deltas and
	// a continuation phase does not double-count the prefix.
	txnBusy []sim.Time
}

// allocEntry records one named allocation. Allocations number in the
// tens at most, so a linear scan beats a map and leaves nothing to
// rebuild on Reset.
type allocEntry struct {
	name string
	base Addr
}

// machMetrics caches the machine-level observability handles. All
// handles are nil-safe no-ops when no registry is configured, so the
// processor hot paths call them unconditionally.
type machMetrics struct {
	busy     *metrics.Counter
	stall    [8]*metrics.Counter // indexed by waitReason
	reads    *metrics.Counter
	writes   *metrics.Counter
	atomics  *metrics.Counter
	flushes  *metrics.Counter
	readMiss *metrics.Histogram
}

func newMachMetrics(r *metrics.Registry) machMetrics {
	m := machMetrics{
		busy:     r.Counter("busy"),
		reads:    r.Counter("ops.reads"),
		writes:   r.Counter("ops.writes"),
		atomics:  r.Counter("ops.atomics"),
		flushes:  r.Counter("ops.flushes"),
		readMiss: r.Histogram("latency.read_miss"),
	}
	m.stall[waitRead] = r.Counter("stall.read")
	m.stall[waitWBSpace] = r.Counter("stall.write")
	m.stall[waitFlushWB] = m.stall[waitWBSpace]
	m.stall[waitFence] = r.Counter("stall.fence")
	m.stall[waitAtomic] = r.Counter("stall.atomic")
	m.stall[waitSpin] = r.Counter("stall.spin")
	m.stall[waitSync] = r.Counter("stall.sync")
	return m
}

// New builds a machine.
func New(cfg Config) *Machine {
	if cfg.Procs <= 0 || cfg.Procs > 64 {
		panic(fmt.Sprintf("machine: Procs %d out of range [1,64]", cfg.Procs))
	}
	m := &Machine{
		e:   sim.NewEngine(),
		cl:  classify.New(cfg.Procs),
		cfg: cfg,
		met: newMachMetrics(cfg.Metrics),
	}
	m.sys = proto.NewSystem(m.e, cfg.Procs, cfg.Config, m.cl, m.homeOf)
	return m
}

// homeOf implements the paper's data placement over the flat allocation
// table: allocated blocks use their recorded home, anything else
// interleaves by block number.
func (m *Machine) homeOf(block uint32) int {
	if int(block) < len(m.blockHome) {
		return int(m.blockHome[block])
	}
	return int(block) % m.cfg.Procs
}

// Reset returns the machine to its post-New state under cfg, reusing
// every internal structure — engine, mesh, memory arena, caches,
// directory, pooled protocol objects, processors — so sweeps can run
// many points without reconstructing a machine. It reports false (and
// changes nothing) when cfg is structurally incompatible with the
// machine as built: the processor count, cache size, mesh, and memory
// parameters are fixed at construction.
// Protocol selection, thresholds, ablation switches, and observability
// sinks may change freely between runs. A reset machine is
// indistinguishable from a fresh one: allocations, Pokes, and
// RunProgram produce byte-identical results.
func (m *Machine) Reset(cfg Config) bool {
	if keyOf(cfg) != keyOf(m.cfg) {
		return false
	}
	if !m.e.Reset() {
		return false
	}
	m.cfg = cfg
	m.met = newMachMetrics(cfg.Metrics)
	m.cl.Reset()
	m.nextBlock = 0
	m.blockHome = m.blockHome[:0]
	for i := range m.allocs {
		m.allocs[i] = allocEntry{}
	}
	m.allocs = m.allocs[:0]
	m.sys.Reset(cfg.Config)
	for _, p := range m.procs {
		p.reset()
	}
	m.ran = false
	clear(m.replay)
	m.replay = m.replay[:0]
	m.construct = ""
	for i := range m.txnBusy {
		m.txnBusy[i] = 0
	}
	return true
}

// Procs returns the processor count.
func (m *Machine) Procs() int { return m.cfg.Procs }

// System exposes the coherence system (tests and diagnostics).
func (m *Machine) System() *proto.System { return m.sys }

// MetricsHistogram returns a named histogram handle from the machine's
// registry — a nil no-op handle when observability is off. Constructs
// use it to record latency distributions without caring whether metrics
// are enabled.
func (m *Machine) MetricsHistogram(name string) *metrics.Histogram {
	return m.cfg.Metrics.Histogram(name)
}

// MarkConstruct records that the construct named name was built on m.
// Every construct constructor calls it: a construct keeps addresses,
// run state and metric handles outside the processors' Frames, so a
// program over it cannot be replayed on another machine, and Snapshot
// refuses m. Reset clears the mark.
func (m *Machine) MarkConstruct(name string) {
	if m.construct == "" {
		m.construct = name
	}
}

// Alloc reserves size bytes of shared memory, rounded up to whole cache
// blocks, and returns the base address. home pins every block of the
// allocation to that node, following the paper's placement of shared
// data at the processor that uses it most; home = -1 interleaves the
// allocation's blocks across nodes at block granularity. Each allocation
// starts on its own block, so distinct allocations never false-share.
func (m *Machine) Alloc(name string, size, home int) Addr {
	if size <= 0 {
		panic("machine: Alloc size must be positive")
	}
	if home < -1 || home >= m.cfg.Procs {
		panic(fmt.Sprintf("machine: Alloc home %d out of range", home))
	}
	for _, e := range m.allocs {
		if e.name == name {
			panic(fmt.Sprintf("machine: duplicate allocation %q", name))
		}
	}
	blocks := (size + cache.BlockBytes - 1) / cache.BlockBytes
	base := cache.BlockBase(m.nextBlock)
	for i := 0; i < blocks; i++ {
		h := home
		if h < 0 {
			h = i % m.cfg.Procs
		}
		m.blockHome = append(m.blockHome, int8(h))
	}
	m.nextBlock += uint32(blocks)
	m.allocs = append(m.allocs, allocEntry{name, base})
	return base
}

// Poke initializes a shared word in memory without simulated time or
// traffic. Use only while no RunProgram phase is executing. A Poke
// between phases is recorded with them, so a fork replays it in order.
func (m *Machine) Poke(a Addr, v uint32) {
	if m.ran {
		m.replay = append(m.replay, replayStep{addr: a, val: v})
	}
	block, word := cache.BlockOf(a), cache.WordOf(a)
	m.sys.Memory(m.sys.HomeOf(block)).Poke(block, word, v)
}

// Peek reads a shared word directly from memory (diagnostics; note that
// under WI a dirty cached copy may be newer).
func (m *Machine) Peek(a Addr) uint32 {
	block, word := cache.BlockOf(a), cache.WordOf(a)
	return m.sys.Memory(m.sys.HomeOf(block)).Peek(block, word)
}

// ensureProcs lazily builds the processor set (kept across Reset).
func (m *Machine) ensureProcs() {
	if m.procs == nil {
		m.procs = make([]*Proc, m.cfg.Procs)
		for i := 0; i < m.cfg.Procs; i++ {
			m.procs[i] = newProc(m, i)
		}
	}
}

// RunProgram executes prog on every simulated processor to completion
// and returns the run summary. The paper's fork-time flush of the
// parent's cache holds by construction: initialization writes memory
// through Poke, never a cache, so every cache — processor 0's included —
// is empty when the first phase starts.
//
// RunProgram may be called again after it returns: a second call is a
// continuation phase that extends the same simulation — caches stay
// warm, the clock and event numbering continue, and the returned Result
// is cumulative. The machine records each phase's program, so Snapshot
// can capture the prefix and RestoreFrom replay it on another machine.
//
// A step that returns OpBlocked without having parked the processor or
// scheduled its wake (for one, ignoring FCompute's result) strands it:
// the queue drains with the program unfinished. That is a bug in the
// Program, and RunProgram panics rather than return a truncated Result;
// the machine then refuses Reset, so the pool drops it.
func (m *Machine) RunProgram(prog Program) Result {
	m.runPhase(prog)
	return m.result()
}

// runPhase is RunProgram without the Result: it records and runs one
// phase, finalizes its classification and feeds the transaction tracer.
// RestoreFrom replays a prefix through it.
func (m *Machine) runPhase(prog Program) {
	m.ran = true
	m.replay = append(m.replay, replayStep{prog: prog})
	m.ensureProcs()
	for _, p := range m.procs {
		p.startProgram(prog)
	}
	m.e.Run()
	if n := m.e.Live(); n != 0 {
		panic(fmt.Sprintf("machine: run ended with %d processor(s) unfinished: a step returned OpBlocked without parking", n))
	}
	m.cl.Finish()
	if len(m.txnBusy) != len(m.procs) {
		m.txnBusy = make([]sim.Time, len(m.procs))
	}
	for i, p := range m.procs {
		// Feed the tracer only the busy cycles accrued since the last
		// phase, so a continuation phase's cumulative ProcStats are not
		// double-counted.
		m.cfg.Txn.AddCompute(i, p.stats.Busy-m.txnBusy[i])
		m.txnBusy[i] = p.stats.Busy
	}
}

// result assembles the run summary.
func (m *Machine) result() Result {
	per := make([]ProcStats, len(m.procs))
	for i, p := range m.procs {
		per[i] = p.stats
	}
	return Result{
		Cycles:     m.e.Now(),
		Misses:     m.cl.Misses(),
		Updates:    m.cl.Updates(),
		Counters:   m.sys.Counters(),
		Net:        m.sys.Network().Stats(),
		References: m.cl.References(),
		MissRate:   m.cl.MissRate(),
		SimEvents:  m.e.Processed(),
		PerProc:    per,
		Metrics:    m.cfg.Metrics.Snapshot(m.e.Now()),
		Breakdown:  m.cfg.Txn.Snapshot(m.e.Now()),
	}
}
