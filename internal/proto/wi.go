package proto

import (
	"math/bits"

	"coherencesim/internal/cache"
	"coherencesim/internal/classify"
	"coherencesim/internal/sim"
	"coherencesim/internal/trace"
)

// This file implements the write-invalidate protocol's write and atomic
// paths. Reads are shared with the update protocols (api.go): the only
// protocol-specific read behaviour — servicing a dirty-owned block — is
// identical in structure to fetching a PU retained-private block.
//
// Writes: under release consistency the processor has already buffered
// the store; this transaction obtains an exclusive copy (upgrading a
// shared copy or fetching the block), with the home sending invalidations
// and collecting acknowledgements before granting ownership (the acks
// that cross the mesh are booked and counted at once, except the last
// one sent — ackFan; a sharer on the home node acks through the loopback,
// outside the interface FIFO, and stays a queued event). The write
// retires when the grant arrives, at which point all invalidations have
// been acknowledged, so WI writes never leave residual outstanding state.
//
// Each acquisition runs as one pooled wiOp object carrying its stage
// continuations, built once per object, so the per-write transaction
// chain does not allocate in steady state. Invalidation deliveries are
// separate pooled invMsg objects (several are in flight per wiOp).

// wiOp is one exclusive-copy acquisition (store or atomic) under WI.
type wiOp struct {
	s        *System
	p        int
	word     int
	owner    int
	pending  int    // invalidation acks still outstanding
	acks     ackFan // the mesh-crossing ones among them
	block    uint32
	txn      trace.TxnID
	v        uint32 // store value
	op1, op2 uint32 // atomic operands
	kind     AtomicKind
	isAtomic bool
	needData bool
	haveData bool
	data     []uint32     // borrowed frame (fetched block), released at grant
	hdr      Msg          // the ownership request's header
	retire   func()       // store completion
	done     func(uint32) // atomic completion
	next     *wiOp

	homeFn       func() // at the home: serialize on the directory entry
	lockedFn     func() // entry free: fetch/invalidate per directory state
	fetchedFn    func() // memory read complete
	ackFn        func() // one invalidation acknowledged
	ownerFetchFn func() // at the old owner: extract data, forward home
	ownerBackFn  func() // data back at the home: refresh memory
	ownerWroteFn func() // memory refreshed: grant
	grantFn      func() // at the requester: take ownership, perform
}

func (s *System) newWiOp(p int, block uint32, word int) *wiOp {
	op := s.wiFree
	if op == nil {
		op = &wiOp{s: s}
		op.homeFn = op.home
		op.lockedFn = op.locked
		op.fetchedFn = op.fetched
		op.ackFn = op.ack
		op.ownerFetchFn = op.ownerFetch
		op.ownerBackFn = op.ownerBack
		op.ownerWroteFn = op.ownerWrote
		op.grantFn = op.granted
	} else {
		s.wiFree = op.next
		op.next = nil
	}
	op.p, op.block, op.word = p, block, word
	op.pending = 0
	op.needData, op.haveData = false, false
	op.isAtomic = false
	op.txn = 0
	return op
}

func (op *wiOp) recycle() {
	op.retire, op.done, op.data = nil, nil, nil
	op.next = op.s.wiFree
	op.s.wiFree = op
}

// wiWrite drains one write-buffer entry under WI.
func (s *System) wiWrite(p int, a cache.Addr, v uint32, retire func()) {
	op := s.newWiOp(p, cache.BlockOf(a), cache.WordOf(a))
	op.v = v
	op.retire = retire
	op.start()
}

// wiAtomic executes an atomic op in the cache controller on an exclusive
// copy.
func (s *System) wiAtomic(p int, a cache.Addr, kind AtomicKind, op1, op2 uint32, done func(old uint32)) {
	op := s.newWiOp(p, cache.BlockOf(a), cache.WordOf(a))
	op.isAtomic = true
	op.kind, op.op1, op.op2 = kind, op1, op2
	op.done = done
	op.start()
}

// start obtains an exclusive copy of the block in p's cache, classifying
// the access (hit, upgrade, or write miss) as a side effect, and performs
// the deferred store/atomic once ownership is held. Retried grants
// re-enter here.
func (op *wiOp) start() {
	s := op.s
	c := s.caches[op.p]
	if ln := c.Lookup(op.block); ln != nil {
		if ln.State == cache.Exclusive {
			c.CountHit()
			op.perform(ln)
			return
		}
		// Shared copy: exclusive-request (upgrade) transaction.
		c.CountHit()
		s.cl.Upgrade(op.p)
		s.ctr.Upgrades++
	} else {
		c.CountMiss()
		s.cl.Miss(op.p, op.block, op.word)
		s.ctr.WriteMisses++
	}
	// A granted-retry re-entry keeps its original transaction ID.
	if s.tr != nil && op.txn == 0 {
		kind := trace.TxnWrite
		if op.isAtomic {
			kind = trace.TxnAtomic
		}
		op.txn = s.tr.Begin(op.p, kind, op.block, s.e.Now())
	}
	op.hdr = Msg{Kind: MsgWIReq, Src: uint8(op.p), Dst: uint8(s.HomeOf(op.block)), Block: op.block}
	s.sendT(op.txn, &op.hdr, szControl, op.homeFn)
}

// perform runs the deferred store or atomic on the now-exclusive line.
// The op recycles before the completion callback runs (and before
// watchers fire, which can resume other processors that issue new
// operations), its fields copied to locals first.
func (op *wiOp) perform(ln *cache.Line) {
	s, p, block, word, txn := op.s, op.p, op.block, op.word, op.txn
	if op.isAtomic {
		kind, op1, op2, done := op.kind, op.op1, op.op2, op.done
		op.recycle()
		old := ln.Data[word]
		ln.Data[word] = kind.apply(old, op1, op2)
		ln.Dirty = true
		s.cl.Reference(p, block, word)
		s.cl.GlobalWrite(p, block, word)
		if s.tr != nil {
			s.tr.End(txn, s.e.Now())
		}
		s.caches[p].FireWatchers(block)
		done(old)
		return
	}
	v, retire := op.v, op.retire
	op.recycle()
	ln.Data[word] = v
	ln.Dirty = true
	s.cl.Reference(p, block, word)
	s.cl.GlobalWrite(p, block, word)
	if s.tr != nil {
		s.tr.End(txn, s.e.Now())
	}
	s.caches[p].FireWatchers(block)
	retire()
}

// home serializes the ownership request through the directory.
func (op *wiOp) home() {
	if s := op.s; s.tr != nil {
		s.tr.HomeArrive(op.txn, s.e.Now())
	}
	op.s.whenFree(op.s.entry(op.block), &op.hdr, op.lockedFn)
}

// locked services the ownership request once the entry is free. Exactly
// one of three cases applies: no other copies (fetch from memory), shared
// copies (invalidate them, collecting acks at the home), or a dirty owner
// (fetch-and-invalidate the owner).
func (op *wiOp) locked() {
	s := op.s
	if s.tr != nil {
		s.tr.DirStart(op.txn, s.e.Now())
	}
	d := s.entry(op.block)
	home := s.HomeOf(op.block)
	d.busy = true

	switch d.State {
	case DirUncached:
		op.needData = true
		op.data = s.store.BorrowFrame()
		s.mems[home].ReadBlockInto(op.block, op.data, op.fetchedFn)

	case DirShared:
		op.needData = !d.Has(op.p)
		others := s.sharerList(d, op.p)
		s.mInvFan.Observe(uint64(len(others)))
		if s.tr != nil && op.txn != 0 && len(others) > 0 {
			s.tr.Fanout(op.txn, trace.FanInv, s.e.Now())
		}
		op.pending = len(others)
		// The home's own copy acks by loopback, not across the mesh.
		op.acks = ackFan{left: bits.OnesCount64(d.Sharers &^ (1<<uint(op.p) | 1<<uint(home))),
			kind: MsgInvAck, aux: uint8(op.p), block: op.block}
		op.haveData = !op.needData
		if op.needData {
			op.data = s.store.BorrowFrame()
			s.mems[home].ReadBlockInto(op.block, op.data, op.fetchedFn)
		}
		// FAULT (explorer only): grant with the invalidations in flight;
		// they then answer nobody, so none touches the recycled op.
		early := s.ch != nil && s.ch.faults.GrantBeforeAcks
		for _, q := range others {
			s.ctr.Invals++
			m := s.newInvMsg(q, op)
			m.sentAt = s.e.Now()
			s.sendT(op.txn, &Msg{Kind: MsgInv, Src: uint8(home), Dst: uint8(q), Block: op.block, Aux: uint8(op.p)}, szControl, m.fn)
			if early {
				m.op = nil
			}
		}
		if early {
			op.pending = 0
		}
		op.maybeGrant() // covers the no-other-sharers upgrade

	case DirOwned:
		op.owner = d.Owner
		s.sendT(op.txn, &Msg{Kind: MsgWIFetch, Src: uint8(home), Dst: uint8(op.owner), Block: op.block, Aux: uint8(op.p)}, szControl, op.ownerFetchFn)
	}
}

// fetched marks the memory data available.
func (op *wiOp) fetched() {
	op.haveData = true
	op.maybeGrant()
}

// ack retires one invalidation acknowledgement.
func (op *wiOp) ack() {
	op.pending--
	op.maybeGrant()
}

// maybeGrant books the ownership grant once all acknowledgements are in
// and any needed data has arrived.
func (op *wiOp) maybeGrant() {
	if op.pending == 0 && op.haveData {
		op.grant()
	}
}

// grant transfers directory ownership and books the grant message. The
// grant is booked before releasing the entry: the next queued transaction
// may immediately send a fetch/invalidate to the new owner, and same-pair
// mesh FIFO then guarantees the grant arrives first.
func (op *wiOp) grant() {
	s := op.s
	d := s.entry(op.block)
	d.Grant(op.p)
	size := szControl
	if op.data != nil {
		size = szData
	}
	s.sendT(op.txn, &Msg{Kind: MsgGrant, Src: uint8(s.HomeOf(op.block)), Dst: uint8(op.p), Block: op.block, Data: op.data}, size, op.grantFn)
	s.release(d)
}

// ownerFetch runs at the old owner: take its data (invalidating the
// line) and forward it home.
func (op *wiOp) ownerFetch() {
	s := op.s
	op.data = s.takeOwnerData(op.owner, op.block, false /* invalidate */)
	s.sendT(op.txn, &Msg{Kind: MsgWIData, Src: uint8(op.owner), Dst: uint8(s.HomeOf(op.block)), Block: op.block, Aux: uint8(op.p), Data: op.data}, szData, op.ownerBackFn)
}

// ownerBack refreshes memory with the old owner's data.
func (op *wiOp) ownerBack() {
	s := op.s
	s.mems[s.HomeOf(op.block)].WriteBlock(op.block, op.data, op.ownerWroteFn)
}

// ownerWrote grants ownership with the fetched data.
func (op *wiOp) ownerWrote() {
	op.haveData = true
	op.grant()
}

// granted applies ownership at the requester and runs the deferred
// store/atomic. If the requester's shared copy vanished while an upgrade
// was in flight (possible only through a conflict eviction by an
// unrelated access), the transaction is retried as a full write miss.
func (op *wiOp) granted() {
	s := op.s
	c := s.caches[op.p]
	ln := c.Lookup(op.block)
	switch {
	case ln != nil:
		ln.State = cache.Exclusive
		if op.data != nil {
			copy(ln.Data[:], op.data)
			s.store.ReleaseFrame(op.data)
			op.data = nil
		}
	case op.data != nil:
		ln = s.install(op.p, op.block, op.data, cache.Exclusive)
		s.store.ReleaseFrame(op.data)
		op.data = nil
	default:
		// Upgrade grant raced with losing the line: retry from scratch.
		op.pending = 0
		op.needData, op.haveData = false, false
		op.start()
		return
	}
	op.perform(ln)
}

// invMsg is one pooled invalidation delivery; several are in flight per
// wiOp during a multicast. It recycles before the invalidation applies
// (fields copied out first) — the invalidation wakes watchers, which can
// start new WI transactions that multicast invalidations of their own.
type invMsg struct {
	s      *System
	q      int
	block  uint32
	sentAt sim.Time // fan-out dispatch time (trace per-target span start)
	op     *wiOp
	next   *invMsg
	fn     func()
}

func (s *System) newInvMsg(q int, op *wiOp) *invMsg {
	m := s.invFree
	if m == nil {
		m = &invMsg{s: s}
		m.fn = m.deliver
	} else {
		s.invFree = m.next
		m.next = nil
	}
	m.q, m.block, m.op = q, op.block, op
	return m
}

func (m *invMsg) deliver() {
	s, q, block, op, sentAt := m.s, m.q, m.block, m.op, m.sentAt
	m.op = nil
	m.next = s.invFree
	s.invFree = m
	if s.caches[q].Present(block) {
		if s.tr != nil {
			s.tr.CacheTouch(q, op.txn)
		}
		s.cl.LostCopy(q, block, classify.LossInvalidation)
		s.caches[q].Invalidate(block)
	}
	if op == nil {
		return // a grant-before-acks fault's invalidation
	}
	at, queued := s.sendFanAck(&op.acks, op.txn, q, s.HomeOf(block), op.ackFn)
	if !queued {
		op.pending-- // op.ack, minus a maybeGrant that cannot fire
	}
	if s.tr != nil && op.txn != 0 {
		s.tr.TargetAck(op.txn, q, sentAt, at)
	}
}
