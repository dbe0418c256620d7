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
	waitq []func()
	// waitH holds the queued requests' headers on the choice network
	// alone (an Explorer's); the mesh keeps none.
	waitH []Msg
}

// procState is per-node transient protocol state.
type procState struct {
	outstanding  int      // writes issued but not fully acknowledged
	drainWaiters []func() // callbacks awaiting outstanding == 0
	// drainSpare is the emptied waiter list of the previous drain:
	// completeOutstanding swaps the two, so a blocked fence appends into
	// storage it already owns instead of allocating a list per drain.
	drainSpare []func()
	// pendingWB holds dirty data evicted/flushed but not yet arrived at
	// the home, so forwarded requests can still be served.
	pendingWB map[uint32][]uint32
	// cancelledWB counts write-backs that were superseded by a forwarded
	// request before reaching the home; each arrival consumes one count
	// and is ignored. (A counter, not a flag: the node can re-acquire
	// and re-evict the block while an earlier cancelled write-back is
	// still in flight.)
	cancelledWB map[uint32]int
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
	// atomics (with their update multicast and ack collection), readMsg
	// read misses, wiOp WI ownership acquisitions, invMsg WI
	// invalidations, noteMsg drop/replacement/relinquish notices, wbMsg
	// dirty write-backs; dirs lends the directory entries, which a
	// block keeps until Reset.
	dirs   pool[dirEntry]
	updOps pool[updOp]
	reads  pool[readMsg]
	wiOps  pool[wiOp]
	invs   pool[invMsg]
	notes  pool[noteMsg]
	wbs    pool[wbMsg]
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
		s.procs[i].pendingWB = make(map[uint32][]uint32)
		s.procs[i].cancelledWB = make(map[uint32]int)
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
		clear(ps.pendingWB) // the frames come back with store.Reset
		clear(ps.cancelledWB)
	}
	s.dirs.reset()
	s.updOps.reset()
	s.reads.reset()
	s.wiOps.reset()
	s.invs.reset()
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
		*d = dirEntry{waitq: d.waitq[:0], waitH: d.waitH[:0]}
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

// whenFree runs fn when the directory entry is not busy, queueing it
// behind in-flight transactions otherwise. fn must re-examine all state;
// h is the request's header.
func (s *System) whenFree(d *dirEntry, h *Msg, fn func()) {
	if d.busy {
		d.waitq = append(d.waitq, fn)
		if s.ch != nil {
			d.waitH = append(d.waitH, *h)
		}
		return
	}
	fn()
}

// release clears busy and dispatches queued transactions until one takes
// the entry busy again (transactions that never set busy, such as plain
// write-through updates, drain in FIFO order).
func (s *System) release(d *dirEntry) {
	d.busy = false
	for !d.busy && len(d.waitq) > 0 {
		// Pop by shifting down: queues are a few entries long, and
		// reslicing from the front would shed capacity until append
		// reallocates, forever.
		next := d.waitq[0]
		n := copy(d.waitq, d.waitq[1:])
		d.waitq[n] = nil
		d.waitq = d.waitq[:n]
		if s.ch != nil {
			d.waitH = d.waitH[:copy(d.waitH, d.waitH[1:])]
		}
		next()
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

// ackFan is the sending side of one multicast's acknowledgement
// collection. An ack that is not the last of its multicast to be sent
// cannot complete the collection — its handler would bump a count and
// fail a check — so it is no event: it books its passage through the
// mesh and the caller counts it at once. The collector's interface
// delivers in sending order, so the last ack sent is the last to arrive
// and the only one queued (DESIGN.md, "Booked acknowledgements"). The
// choice network has no sending order to rely on, so there every ack is
// queued.
type ackFan struct {
	left   int      // mesh-crossing acks not yet sent
	booked sim.Time // arrival of the latest booked one
	// The acks' header, less their ends.
	kind  MsgKind
	aux   uint8
	block uint32
}

// sendFanAck sends one ack of f's multicast from src to the collector at
// dst and reports its arrival and whether it was queued (with deliver)
// or booked. The arrival order is asserted: a mesh model that breaks
// destination FIFO must fail loudly, not complete collections early.
func (s *System) sendFanAck(f *ackFan, txn trace.TxnID, src, dst int, deliver func()) (at sim.Time, queued bool) {
	s.ctr.Acks++
	// Loopback (WI, a sharer on the home node) bypasses the interface
	// FIFO, and the choice network keeps no sending order: either way
	// the ack is queued, never one of f's booked ones.
	queue := src == dst || s.ch != nil
	if !queue {
		f.left--
	}
	if queue || f.left == 0 {
		h := Msg{Kind: f.kind, Src: uint8(src), Dst: uint8(dst), Block: f.block, Aux: f.aux}
		if at = s.sendT(txn, &h, szAck, deliver); !queue && at <= f.booked {
			panic("proto: final acknowledgement arrives before a booked one")
		}
		return at, true
	}
	s.e.Elide()
	f.booked = s.nw.Book(src, dst, szAck)
	if s.tr != nil && txn != 0 {
		s.tr.Hop(txn, s.nw.Flits(szAck))
	}
	return f.booked, false
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

// sendWriteback books a dirty/owned line's data into a pending
// write-back buffer (a borrowed frame, so forwarded requests can still
// be served while the message is in flight) and sends it home.
func (s *System) sendWriteback(p int, block uint32, src []uint32) {
	s.ctr.Writebacks++
	data := s.store.BorrowFrame()
	copy(data, src)
	s.procs[p].pendingWB[block] = data
	m, fresh := s.wbs.get()
	*m = wbMsg{s: s, p: p, block: block, data: data, arriveFn: m.arriveFn, lockedFn: m.lockedFn,
		hdr: Msg{Kind: MsgWB, Src: uint8(p), Dst: uint8(s.HomeOf(block)), Block: block, Data: data}}
	if fresh {
		m.arriveFn = m.arrive
		m.lockedFn = m.locked
	}
	if s.tr != nil {
		m.txn = s.tr.Begin(p, trace.TxnWriteback, block, s.e.Now())
	}
	s.sendT(m.txn, &m.hdr, szData, m.arriveFn)
}

// wbMsg carries one dirty write-back home. Processing serializes behind
// any in-flight transaction for the block: a fetch already on its way to
// the evicting node must find (and cancel) the pending write-back buffer
// before the home consumes the write-back message. The frame is released
// when the home has consumed (or discarded) the data.
type wbMsg struct {
	s        *System
	p        int
	block    uint32
	data     []uint32 // borrowed frame, also registered in pendingWB
	hdr      Msg      // the write-back's header
	txn      trace.TxnID
	arriveFn func() // delivery at the home: serialize on the entry
	lockedFn func() // entry free: apply or discard
}

func (m *wbMsg) arrive() {
	if s := m.s; s.tr != nil {
		s.tr.HomeArrive(m.txn, s.e.Now())
	}
	m.s.whenFree(m.s.entry(m.block), &m.hdr, m.lockedFn)
}

func (m *wbMsg) locked() {
	s, p, block, data, txn := m.s, m.p, m.block, m.data, m.txn
	s.wbs.put(m)
	if s.tr != nil {
		s.tr.DirStart(txn, s.e.Now())
	}
	s.homeWriteback(p, block, data)
	s.store.ReleaseFrame(data)
	if s.tr != nil {
		s.tr.End(txn, s.e.Now())
	}
}

// homeWriteback applies dirty evicted/flushed data at the home. The data
// slice is consumed before returning; the caller owns (and releases) it.
func (s *System) homeWriteback(p int, block uint32, data []uint32) {
	if n := s.procs[p].cancelledWB[block]; n > 0 {
		// A forwarded request already consumed this write-back.
		if n == 1 {
			delete(s.procs[p].cancelledWB, block)
		} else {
			s.procs[p].cancelledWB[block] = n - 1
		}
		return
	}
	s.mems[s.HomeOf(block)].WriteBlock(block, data, nil)
	delete(s.procs[p].pendingWB, block)
	s.entry(block).Relinquish(p)
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
