// Package proto implements the coherence machinery of the simulated
// multiprocessor: a full-map directory per home node and the three
// protocols the paper studies.
//
//   - WI: a DASH-like write-invalidate directory protocol with release
//     consistency. Unlike DASH's requester-centric collection, our home
//     node gathers invalidation acknowledgements and then grants the
//     write; this adds one switch traversal of latency on contended
//     upgrades but exchanges the same number of messages, and removes
//     transient-state races (see DESIGN.md).
//
//   - PU: pure update. Writes write through to the home, which updates
//     memory and multicasts updates to the remaining sharers; sharers
//     acknowledge to the writer, who stalls on acks only at release
//     points. Includes the paper's private-block retention optimization:
//     when the home sees an update for a block cached only by the writer,
//     the reply tells the writer to retain future updates locally.
//
//   - CU: competitive update. Like PU, but each cached copy carries a
//     counter; an arriving update increments it and local references
//     reset it. At the threshold (paper: 4) the copy self-invalidates
//     and the node asks the home to stop sending it updates.
//
// Atomic fetch_and_add / fetch_and_store / compare_and_swap execute in
// the cache controller (obtaining an exclusive copy) under WI and at the
// home memory under the update-based protocols, as in the paper.
//
// All methods must be invoked from engine context (events or a
// processor's step functions); the package performs no locking.
package proto

import (
	"fmt"
	"math/bits"
	"slices"

	"coherencesim/internal/cache"
	"coherencesim/internal/classify"
	"coherencesim/internal/mem"
	"coherencesim/internal/mesh"
	"coherencesim/internal/metrics"
	"coherencesim/internal/sim"
	"coherencesim/internal/trace"
)

// Protocol selects the coherence protocol.
type Protocol int

const (
	// WI is the write-invalidate protocol.
	WI Protocol = iota
	// PU is the pure update protocol.
	PU
	// CU is the competitive update protocol.
	CU
)

func (p Protocol) String() string {
	switch p {
	case WI:
		return "WI"
	case PU:
		return "PU"
	case CU:
		return "CU"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// ParseProtocol inverts Protocol.String.
func ParseProtocol(s string) (Protocol, error) {
	for p := WI; p <= CU; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("proto: unknown protocol %q", s)
}

// Short returns the paper's one-letter protocol tag ("i", "u", "c").
func (p Protocol) Short() string {
	switch p {
	case WI:
		return "i"
	case PU:
		return "u"
	case CU:
		return "c"
	}
	return "?"
}

// Message sizes in bytes (8-byte header; +8 for address/word payloads;
// +64 for a data block).
const (
	szControl = 8
	szWord    = 16
	szData    = 72
	szAck     = 8
)

// AtomicKind selects an atomic read-modify-write operation.
type AtomicKind int

const (
	// FetchAdd returns the old value and stores old+operand.
	FetchAdd AtomicKind = iota
	// FetchStore returns the old value and stores operand.
	FetchStore
	// CompareSwap stores operand2 if old == operand1; returns old.
	CompareSwap
)

func (k AtomicKind) apply(old, op1, op2 uint32) uint32 {
	switch k {
	case FetchAdd:
		return old + op1
	case FetchStore:
		return op1
	case CompareSwap:
		if old == op1 {
			return op2
		}
		return old
	}
	panic(fmt.Sprintf("proto: unknown atomic kind %d", int(k)))
}

// Config parameterizes the coherence system.
type Config struct {
	Protocol    Protocol
	CUThreshold uint8 // competitive-update counter threshold (paper: 4)
	CacheBytes  int   // per-node data cache size (paper: 64 KB)
	// DisableRetention turns off PU's private-block retention
	// optimization (ablation studies).
	DisableRetention bool
	Mesh             mesh.Config
	Mem              mem.Config
	// HomeOf maps a block number to its home node. Required.
	HomeOf func(block uint32) int
	// Metrics, when non-nil, receives protocol-level observability:
	// invalidation/update fan-out histograms and sampled network and
	// cache counters. Keyed entirely to simulated time, so enabling it
	// never perturbs determinism.
	Metrics *metrics.Registry
	// Txn, when non-nil, receives causal transaction traces: every
	// memory operation leaving a processor gets an ID and lifecycle
	// spans (issue, home arrival, directory service, fan-out legs,
	// completion). Like Metrics it is keyed purely to simulated time
	// and never perturbs the simulation; a nil tracer costs one pointer
	// check per hook.
	Txn *trace.Tracer
}

// DefaultConfig returns the paper's machine parameters for the given
// protocol and processor count, with block-interleaved homes.
func DefaultConfig(p Protocol, procs int) Config {
	return Config{
		Protocol:    p,
		CUThreshold: 4,
		CacheBytes:  64 * 1024,
		Mesh:        mesh.DefaultConfig(),
		Mem:         mem.DefaultConfig(),
		HomeOf:      func(block uint32) int { return int(block) % procs },
	}
}

// Counters tallies protocol transactions for reporting.
type Counters struct {
	Reads        uint64 // read transactions sent to homes
	WriteMisses  uint64 // WI read-exclusive transactions
	Upgrades     uint64 // WI upgrade transactions
	UpdatesSent  uint64 // update messages sent to sharers (PU/CU)
	Acks         uint64 // acknowledgement messages
	Invals       uint64 // invalidation messages (WI)
	Atomics      uint64 // atomic operations executed
	Writebacks   uint64 // dirty data returned to homes
	Flushes      uint64 // user-level block flushes
	DropNotices  uint64 // CU "stop updating me" messages
	Retentions   uint64 // PU private-block retention grants
	WriteThrough uint64 // write-through update requests to homes
}

// dirEntry is one block's directory entry: the shared record and the
// entry's serialization of the block's transactions.
type dirEntry struct {
	DirRecord
	busy  bool
	waitq []*request // requests waiting out busy, oldest first
}

// procState is per-node transient protocol state.
type procState struct {
	outstanding  int      // writes issued but not fully acknowledged
	drainWaiters []func() // callbacks awaiting outstanding == 0
	// drainSpare is the emptied waiter list of the previous drain:
	// completeOutstanding swaps the two, so a blocked fence appends into
	// storage it already owns instead of allocating a list per drain.
	drainSpare []func()
	// wbs are the node's write-backs sent and not yet consumed at their
	// homes, oldest first, so a recall can still be served from one.
	wbs []*wbMsg
}

// System is the coherence engine for one simulated machine.
type System struct {
	e      *sim.Engine
	nw     *mesh.Network
	ch     *choiceNet // non-nil on an Explorer: messages take it, not nw
	store  *mem.Store // block arena + payload frame free list, shared by all modules
	mems   []*mem.Module
	caches []*cache.Cache
	procs  []procState
	// dir is the full-map directory, indexed by block number. The
	// simulated address space is dense (the machine allocator hands out
	// blocks contiguously from 0), so a grow-on-demand slice replaces the
	// former map. Entries are pointers: transactions capture *dirEntry
	// across asynchronous hops, so growth must never move an entry.
	dir []*dirEntry
	cl  *classify.Classifier
	cfg Config

	// tr is the optional transaction tracer (nil = tracing off; every
	// hook is gated on this single pointer check).
	tr *trace.Tracer

	ctr Counters

	// Cached observability handles (nil-safe no-ops without a registry).
	mUpdFan *metrics.Histogram // update multicast fan-out per write/atomic
	mInvFan *metrics.Histogram // invalidation fan-out per WI write

	// sharerScratch backs sharerList so enumerating a directory entry's
	// sharers does not allocate; see sharerList for the aliasing rule.
	sharerScratch [64]int
	// flushScratch backs FlushAll's block enumeration.
	flushScratch []uint32

	// Pools of transaction/message objects, each carrying its stage
	// continuations built once for its lifetime, so the steady-state
	// protocol paths allocate nothing: updOp PU/CU write-throughs and
	// atomics (with a retained block's demotion), wiOp WI ownership
	// acquisitions, each with its multicast and ack collection, readMsg
	// read misses, noteMsg drop/replacement/relinquish notices, wbMsg
	// dirty write-backs; dirs lends the directory entries, which a
	// block keeps until Reset.
	dirs   pool[dirEntry]
	updOps pool[updOp]
	reads  pool[readMsg]
	wiOps  pool[wiOp]
	notes  pool[noteMsg]
	wbs    pool[wbMsg]
	// strayInvFn delivers an invalidation that answers no op (NewExplorer).
	strayInvFn func()
}

// pool lends objects of one kind. It keeps every object it has made,
// and reset takes them all back, the ones still in flight too, so a
// reset system never builds an object twice. A taken-back object still
// holds its last transaction's fields — a frame, callbacks, acks — so
// whoever gets one overwrites every field but its continuations before
// the transaction reads any.
type pool[T any] struct {
	all  []*T // every object made, lent or not
	free []*T
}

// get lends an object, reporting whether it is new: its continuations
// are then still to be built.
func (p *pool[T]) get() (x *T, fresh bool) {
	if n := len(p.free); n > 0 {
		x = p.free[n-1]
		p.free = p.free[:n-1]
		return x, false
	}
	x = new(T)
	p.all = append(p.all, x)
	return x, true
}

// put takes x back once its transaction is done with it.
func (p *pool[T]) put(x *T) { p.free = append(p.free, x) }

// reset takes back every object lent.
func (p *pool[T]) reset() { p.free = append(p.free[:0], p.all...) }

// sharerList returns the sharers of d other than except, in ascending
// node order. The slice aliases a scratch buffer on s and is valid only
// until the next call — every caller consumes it within its own event
// callback, before any other directory operation can run.
func (s *System) sharerList(d *dirEntry, except int) []int {
	out := s.sharerScratch[:0]
	m := d.Sharers &^ (1 << uint(except))
	for m != 0 {
		out = append(out, bits.TrailingZeros64(m))
		m &= m - 1
	}
	return out
}

// NewSystem assembles the coherence system for n nodes.
func NewSystem(e *sim.Engine, n int, cfg Config, cl *classify.Classifier) *System {
	if cfg.HomeOf == nil {
		panic("proto: Config.HomeOf is required")
	}
	if n <= 0 || n > 64 {
		panic(fmt.Sprintf("proto: node count %d out of range [1,64]", n))
	}
	s := &System{
		e:      e,
		nw:     mesh.New(e, n, cfg.Mesh),
		store:  mem.NewStore(cfg.Mem.WordsBlock),
		mems:   make([]*mem.Module, n),
		caches: make([]*cache.Cache, n),
		procs:  make([]procState, n),
		cl:     cl,
		cfg:    cfg,
		tr:     cfg.Txn,
	}
	for i := 0; i < n; i++ {
		s.mems[i] = mem.NewModuleWithStore(e, i, cfg.Mem, s.store)
		s.caches[i] = cache.New(i, cfg.CacheBytes)
	}
	s.instrument()
	return s
}

// instrument attaches observability handles per the current config.
func (s *System) instrument() {
	reg := s.cfg.Metrics
	if reg == nil {
		return
	}
	s.mUpdFan = reg.Histogram("fanout.update")
	s.mInvFan = reg.Histogram("fanout.invalidate")
	s.nw.Instrument(reg.Counter("net.msgs"), reg.Counter("net.flits"))
	hits, misses := reg.Counter("cache.hits"), reg.Counter("cache.misses")
	for i := range s.caches {
		s.caches[i].Instrument(hits, misses, s.e.Now)
	}
}

// Reset returns the system to its post-NewSystem state under cfg, so the
// machine layer can reuse a fully constructed system across runs. The
// node count, cache geometry, and memory block size are fixed at
// construction (machine.Reset gates on them); protocol selection,
// thresholds, and observability may change freely between runs. Every
// pooled object and frame the last run lent comes back, in flight or
// not.
func (s *System) Reset(cfg Config) {
	if cfg.HomeOf == nil {
		panic("proto: Config.HomeOf is required")
	}
	s.cfg = cfg
	s.tr = cfg.Txn
	s.ctr = Counters{}
	clear(s.dir) // the entries come back with dirs.reset
	for i := range s.procs {
		ps := &s.procs[i]
		ps.outstanding = 0
		clear(ps.drainWaiters)
		ps.drainWaiters = ps.drainWaiters[:0]
		clear(ps.wbs) // the records come back with wbs.reset
		ps.wbs = ps.wbs[:0]
	}
	s.dirs.reset()
	s.updOps.reset()
	s.reads.reset()
	s.wiOps.reset()
	s.notes.reset()
	s.wbs.reset()
	s.store.Reset()
	for i := range s.caches {
		s.mems[i].Reset()
		s.caches[i].Reset()
	}
	s.nw.Reset()
	s.mUpdFan, s.mInvFan = nil, nil
	s.instrument()
}

// Cache returns node p's cache (used by the machine layer for spin
// watchers and diagnostics).
func (s *System) Cache(p int) *cache.Cache { return s.caches[p] }

// Memory returns node p's memory module (used for initialization).
func (s *System) Memory(p int) *mem.Module { return s.mems[p] }

// Network returns the mesh (for traffic statistics).
func (s *System) Network() *mesh.Network { return s.nw }

// Counters returns a copy of the transaction counters.
func (s *System) Counters() Counters { return s.ctr }

// HomeOf returns the home node of a block.
func (s *System) HomeOf(block uint32) int { return s.cfg.HomeOf(block) }

// entry returns (creating if needed) the directory entry for block.
func (s *System) entry(block uint32) *dirEntry {
	if int(block) >= len(s.dir) {
		grown := make([]*dirEntry, int(block)+64)
		copy(grown, s.dir)
		s.dir = grown
	}
	d := s.dir[block]
	if d == nil {
		d, _ = s.dirs.get()
		clear(d.waitq)
		*d = dirEntry{waitq: d.waitq[:0]}
		s.dir[block] = d
	}
	return d
}

// dirEntryAt returns the directory entry for block without creating one.
func (s *System) dirEntryAt(block uint32) *dirEntry {
	if int(block) < len(s.dir) {
		return s.dir[block]
	}
	return nil
}

// request is what every transaction the home serializes carries — a
// read, a WI acquisition, a PU/CU write-through or atomic, a write-back
// — and its two steps, each written once: home waits out a busy
// directory entry, recall fetches the block from the node that holds it
// exclusively. Embedders keep steps across reuse (renew), building them
// on a fresh object only (bind), so neither step allocates.
type request struct {
	s     *System
	p     int
	word  int
	owner int // the node a recall fetches from
	block uint32
	txn   trace.TxnID
	data  []uint32 // borrowed frame: the block the transaction carries
	hdr   Msg      // the request's header
	// A recall's data message, the transaction its hops are charged to,
	// and its continuation once memory holds the block.
	dataKind MsgKind
	charge   trace.TxnID
	then     func()
	steps
}

// steps are a request's continuations.
type steps struct {
	homeFn    func() // at the home: serialize on the directory entry
	lockedFn  func() // entry free: the transaction's own service
	atOwnerFn func() // a recall at the owner: give the block up, send it home
	atHomeFn  func() // the recalled block at the home: refresh memory
}

// renew returns r's value for p's new transaction on word of block,
// keeping its steps.
func (r *request) renew(s *System, p int, block uint32, word int) request {
	return request{s: s, p: p, block: block, word: word, steps: r.steps}
}

// bind builds a fresh object's steps, with locked as its service.
func (r *request) bind(locked func()) {
	r.steps = steps{homeFn: r.home, lockedFn: locked, atOwnerFn: r.atOwner, atHomeFn: r.atHome}
}

// home serializes the transaction at the block's directory entry: its
// service runs now if the entry is free, and from release, in arrival
// order, otherwise — so it must re-examine all state. A re-entry keeps
// its first home-arrival time (set-if-zero).
func (r *request) home() {
	s := r.s
	if s.tr != nil {
		s.tr.HomeArrive(r.txn, s.e.Now())
	}
	if d := s.entry(r.block); d.busy {
		d.waitq = append(d.waitq, r)
		return
	}
	r.lockedFn()
}

// recall fetches the block from d.Owner: the home sends it fetch, with
// the requester in Aux; the owner gives its data up — a WI fetch
// invalidates its line, a read fetch or a demotion demotes it — and
// sends it home as data; memory takes it, and then runs. The hops are
// charged to charge (0: to none).
func (r *request) recall(d *dirEntry, fetch, data MsgKind, charge trace.TxnID, then func()) {
	s := r.s
	r.owner, r.dataKind, r.charge, r.then = d.Owner, data, charge, then
	s.sendT(charge, &Msg{Kind: fetch, Src: uint8(s.HomeOf(r.block)), Dst: uint8(r.owner), Block: r.block, Word: uint8(r.word), Aux: uint8(r.p)}, szControl, r.atOwnerFn)
}

// atOwner runs a recall at the owner.
func (r *request) atOwner() {
	s := r.s
	r.data = s.takeOwnerData(r.owner, r.block, r.dataKind != MsgWIData)
	s.sendT(r.charge, &Msg{Kind: r.dataKind, Src: uint8(r.owner), Dst: uint8(s.HomeOf(r.block)), Block: r.block, Word: uint8(r.word), Aux: uint8(r.p), Data: r.data}, szData, r.atHomeFn)
}

// atHome refreshes memory with the recalled block.
func (r *request) atHome() {
	s := r.s
	s.mems[s.HomeOf(r.block)].WriteBlock(r.block, r.data, r.then)
}

// release clears busy and serves queued requests until one takes the
// entry busy again (requests that never set busy, such as plain
// write-through updates, drain in FIFO order).
func (d *dirEntry) release() {
	d.busy = false
	for !d.busy && len(d.waitq) > 0 {
		// Pop by shifting down: queues are a few entries long, and
		// reslicing from the front would shed capacity until append
		// reallocates, forever.
		next := d.waitq[0]
		n := copy(d.waitq, d.waitq[1:])
		d.waitq[n] = nil
		d.waitq = d.waitq[:n]
		next.lockedFn()
	}
}

// send sends the message h heads over the mesh, returning the delivery
// instant; on the choice network it queues, and the instant is now.
func (s *System) send(h *Msg, bytes int, deliver func()) sim.Time {
	if s.ch != nil {
		s.ch.send(h, deliver)
		return s.e.Now()
	}
	return s.nw.Send(int(h.Src), int(h.Dst), bytes, deliver)
}

// sendT sends on behalf of a traced transaction, accounting the hop's
// flit payload against it. With tracing off (or an untraced message) it
// is exactly send.
func (s *System) sendT(txn trace.TxnID, h *Msg, bytes int, deliver func()) sim.Time {
	at := s.send(h, bytes, deliver)
	if s.tr != nil && txn != 0 {
		s.tr.Hop(txn, s.nw.Flits(bytes))
	}
	return at
}

// multicast is one home-to-sharers multicast, of invalidations (wiOp) or
// updates (updOp), and the collection of its acks. Its deliveries are
// pushed in ascending sharer order and the engine runs equal times in
// push order, so sorted by (arrival, sharer) fan[k] is the k-th delivery
// to run; the op outlives them all, each sending an ack it awaits. An
// ack that is not the last one sent cannot complete the collection, so
// it is no event: it books its passage and counts at once (DESIGN.md,
// "Booked acknowledgements"). The choice network has no delivery or
// sending order to rely on: there the sharer is the header being
// delivered, and every ack is queued.
type multicast struct {
	fan     []sim.Time // deliveries, arrival<<8 | sharer, in the order they run
	next    int        // fan's next delivery
	fanAt   sim.Time   // when the multicast left the home
	unacked int        // acks not yet counted in
	left    int        // mesh-crossing acks not yet sent
	booked  sim.Time   // arrival of the latest booked one
	ackHdr  Msg        // the acks' header, less their source
}

// fanOut sends h to each of others, which ascend, with deliver, and
// arms the collection of their acks, headed ack. It starts the table
// afresh: a retried WI acquisition multicasts again from the same op.
func (m *multicast) fanOut(s *System, txn trace.TxnID, h *Msg, bytes int, others []int, deliver func(), ack Msg) {
	m.fan, m.next, m.fanAt = m.fan[:0], 0, s.e.Now()
	m.unacked, m.left, m.booked, m.ackHdr = len(others), 0, 0, ack
	for _, q := range others {
		if q != int(ack.Dst) { // a sharer on the collector's node acks by loopback
			m.left++
		}
		h.Dst = uint8(q)
		f := s.sendT(txn, h, bytes, deliver)<<8 | sim.Time(q)
		i := len(m.fan)
		m.fan = append(m.fan, f)
		for ; i > 0 && m.fan[i-1] > f; i-- {
			m.fan[i] = m.fan[i-1]
		}
		m.fan[i] = f
	}
}

// take returns the sharer of the delivery that is running.
func (m *multicast) take(s *System) int {
	if s.ch != nil {
		return int(s.ch.cur.Dst)
	}
	f := m.fan[m.next]
	m.next++
	return int(f & 0xff)
}

// sendAck sends sharer from's acknowledgement to the collector: queued,
// with deliver, when it is the last one sent across the mesh, loops
// back or travels the choice network; booked and counted in at once
// otherwise. The arrival order is asserted: a mesh model that breaks
// destination FIFO must fail loudly, not complete collections early.
func (m *multicast) sendAck(s *System, txn trace.TxnID, from int, deliver func()) {
	s.ctr.Acks++
	to := int(m.ackHdr.Dst)
	queue := from == to || s.ch != nil
	if !queue {
		m.left--
	}
	var at sim.Time
	if queue || m.left == 0 {
		h := m.ackHdr
		h.Src = uint8(from)
		if at = s.sendT(txn, &h, szAck, deliver); !queue && at <= m.booked {
			panic("proto: final acknowledgement arrives before a booked one")
		}
	} else {
		s.e.Elide()
		at = s.nw.Book(from, to, szAck)
		m.booked = at
		m.unacked--
		if s.tr != nil && txn != 0 {
			s.tr.Hop(txn, s.nw.Flits(szAck))
		}
	}
	if s.tr != nil && txn != 0 {
		s.tr.TargetAck(txn, from, m.fanAt, at)
	}
}

// addOutstanding notes n not-yet-complete write components for p.
func (s *System) addOutstanding(p, n int) {
	s.procs[p].outstanding += n
}

// completeOutstanding retires one write component for p and fires drain
// waiters when the count reaches zero.
func (s *System) completeOutstanding(p int) {
	ps := &s.procs[p]
	ps.outstanding--
	if ps.outstanding < 0 {
		panic("proto: outstanding write count went negative")
	}
	if ps.outstanding == 0 && len(ps.drainWaiters) > 0 {
		// Waiters may register new ones (a woken processor can run into
		// its next fence inline), so they run off a detached list; the
		// spare is taken, not shared, in case a waiter drains p again.
		ws := ps.drainWaiters
		ps.drainWaiters, ps.drainSpare = ps.drainSpare[:0], nil
		for i, w := range ws {
			ws[i] = nil
			w()
		}
		ps.drainSpare = ws
	}
}

// WhenDrained runs fn once p has no outstanding write components
// (immediately if already drained).
func (s *System) WhenDrained(p int, fn func()) {
	ps := &s.procs[p]
	if ps.outstanding == 0 {
		fn()
		return
	}
	ps.drainWaiters = append(ps.drainWaiters, fn)
}

// install places data in p's cache, handling any conflict eviction.
// If the block is already present (a racing transaction installed it),
// the existing line is kept and returned.
func (s *System) install(p int, block uint32, data []uint32, st cache.State) *cache.Line {
	c := s.caches[p]
	if ln := c.Lookup(block); ln != nil {
		return ln
	}
	if v, would := c.Victim(block); would {
		s.evictVictim(p, v)
	}
	c.Install(block, data, st)
	s.cl.Installed(p, block)
	return c.Lookup(block)
}

// evictVictim handles a direct-mapped conflict eviction: classification,
// write-back (any exclusively held line — even a clean one, since the
// directory must relinquish ownership through the serialized write-back
// path), or a replacement hint keeping the directory exact.
func (s *System) evictVictim(p int, v cache.Line) {
	s.cl.LostCopy(p, v.Block, classify.LossEviction)
	if v.Dirty || v.State == cache.Exclusive {
		s.sendWriteback(p, v.Block, v.Data[:])
		return
	}
	// Clean copy: replacement hint so homes stop updating/invalidating us.
	s.sendNote(p, v.Block, false)
}

// sendWriteback copies a dirty/owned line's data into a borrowed frame,
// lists the write-back among p's in flight, so a recall can still be
// served from it, and sends it home.
func (s *System) sendWriteback(p int, block uint32, src []uint32) {
	s.ctr.Writebacks++
	m, fresh := s.wbs.get()
	*m = wbMsg{request: m.renew(s, p, block, 0)}
	if fresh {
		m.bind(m.locked)
	}
	m.data = s.store.BorrowFrame()
	copy(m.data, src)
	s.procs[p].wbs = append(s.procs[p].wbs, m)
	m.hdr = Msg{Kind: MsgWB, Src: uint8(p), Dst: uint8(s.HomeOf(block)), Block: block, Data: m.data}
	if s.tr != nil {
		m.txn = s.tr.Begin(p, trace.TxnWriteback, block, s.e.Now())
	}
	s.sendT(m.txn, &m.hdr, szData, m.homeFn)
}

// wbMsg carries one dirty write-back home, its data a borrowed frame;
// it stays on its node's list (procState.wbs) until the home consumes
// it. Processing serializes behind any in-flight transaction for the
// block: a recall already on its way to the evicting node must find the
// write-back there, take its data and cancel it, before the home
// consumes it. The frame is released when the home has consumed (or
// discarded) the data.
type wbMsg struct {
	request
	cancelled bool // a recall served the data: the home discards it
}

// locked takes the write-back off its node's list and, unless a recall
// cancelled it, writes memory and relinquishes the node's copy.
func (m *wbMsg) locked() {
	s, p, block, data, txn, cancelled := m.s, m.p, m.block, m.data, m.txn, m.cancelled
	ps := &s.procs[p]
	i := slices.Index(ps.wbs, m)
	ps.wbs = slices.Delete(ps.wbs, i, i+1)
	s.wbs.put(m)
	if s.tr != nil {
		s.tr.DirStart(txn, s.e.Now())
	}
	if !cancelled {
		s.mems[s.HomeOf(block)].WriteBlock(block, data, nil)
		s.entry(block).Relinquish(p)
	}
	s.store.ReleaseFrame(data)
	if s.tr != nil {
		s.tr.End(txn, s.e.Now())
	}
}

// sendNote sends a pooled control notice home: a replacement hint / CU
// drop notice (relinquish false) or a clean-flush relinquish.
func (s *System) sendNote(p int, block uint32, relinquish bool) {
	m, fresh := s.notes.get()
	*m = noteMsg{s: s, p: p, block: block, relinquish: relinquish, fn: m.fn}
	if fresh {
		m.fn = m.deliver
	}
	h := Msg{Kind: MsgNote, Src: uint8(p), Dst: uint8(s.HomeOf(block)), Block: block}
	if relinquish {
		h.Aux = 1
	}
	s.send(&h, szControl, m.fn)
}

// noteMsg is a pooled sharer-set maintenance notice.
type noteMsg struct {
	s          *System
	p          int
	block      uint32
	relinquish bool
	fn         func()
}

func (m *noteMsg) deliver() {
	s, p, block, relinquish := m.s, m.p, m.block, m.relinquish
	s.notes.put(m)
	if relinquish {
		s.entry(block).Relinquish(p)
		return
	}
	s.entry(block).Drop(p)
}

// FlushAll silently empties p's cache and fixes the directory, modeling
// the paper's fork-time flush of the parent's cache. It is untimed and
// generates no traffic; call it only before the timed region.
func (s *System) FlushAll(p int) {
	c := s.caches[p]
	blocks := s.flushScratch[:0]
	c.ForEachValid(func(ln *cache.Line) { blocks = append(blocks, ln.Block) })
	for _, b := range blocks {
		old, _ := c.Flush(b)
		if old.Dirty {
			s.mems[s.HomeOf(b)].WriteBlock(b, old.Data[:], nil)
		}
		s.entry(b).Relinquish(p)
	}
	s.flushScratch = blocks[:0]
}
