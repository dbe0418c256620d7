package proto

import (
	"coherencesim/internal/cache"
	"coherencesim/internal/classify"
	"coherencesim/internal/trace"
)

// This file implements the write-invalidate protocol's write and atomic
// paths. Reads are shared with the update protocols (api.go): the only
// protocol-specific read behaviour — servicing a dirty-owned block — is
// the same code as fetching a PU retained-private block (request.recall).
//
// Writes: under release consistency the processor has already buffered
// the store; this transaction obtains an exclusive copy (upgrading a
// shared copy or fetching the block), with the home multicasting
// invalidations and collecting their acknowledgements before granting
// ownership (multicast). The write retires when the grant arrives, at
// which point all invalidations have been acknowledged, so WI writes
// never leave residual outstanding state.
//
// Each acquisition runs as one pooled wiOp object carrying its stage
// continuations, built once per object, and its multicast, so the
// per-write transaction chain does not allocate in steady state.

// wiOp is one exclusive-copy acquisition (store or atomic) under WI.
type wiOp struct {
	request
	access
	needData bool
	haveData bool
	multicast
	wiStages
}

// wiStages are a wiOp's own stage continuations.
type wiStages struct {
	fetchedFn func() // memory read or owner recall complete
	invFn     func() // one sharer's invalidation delivered
	ackFn     func() // one queued invalidation ack arrived
	grantFn   func() // at the requester: take ownership, perform
}

func (s *System) newWiOp(p int, block uint32, word int, acc access) *wiOp {
	op, fresh := s.wiOps.get()
	*op = wiOp{request: op.renew(s, p, block, word), access: acc, multicast: multicast{fan: op.fan}, wiStages: op.wiStages}
	if fresh {
		op.bind(op.locked)
		op.wiStages = wiStages{fetchedFn: op.fetched, invFn: op.invalidate, ackFn: op.ack, grantFn: op.granted}
	}
	return op
}

// wiAccess drains one write-buffer entry, or executes an atomic in the
// cache controller, on an exclusive copy.
func (s *System) wiAccess(p int, a cache.Addr, acc access) {
	s.newWiOp(p, cache.BlockOf(a), cache.WordOf(a), acc).start()
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
		s.cl.Upgrade()
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
	s, p, block, word, txn, a := op.s, op.p, op.block, op.word, op.txn, op.access
	old, v := ln.Data[word], a.v
	if a.isAtomic {
		v = a.kind.apply(old, a.op1, a.op2)
	}
	s.wiOps.put(op)
	ln.Data[word] = v
	ln.Dirty = true
	s.cl.Reference(p, block, word)
	s.cl.GlobalWrite(p, block, word)
	if s.tr != nil {
		s.tr.End(txn, s.e.Now())
	}
	s.caches[p].FireWatchers(block)
	a.complete(old)
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
		op.haveData = !op.needData
		if op.needData {
			op.data = s.store.BorrowFrame()
			s.mems[home].ReadBlockInto(op.block, op.data, op.fetchedFn)
		}
		s.ctr.Invals += uint64(len(others))
		h := Msg{Kind: MsgInv, Src: uint8(home), Block: op.block, Aux: uint8(op.p)}
		ack := Msg{Kind: MsgInvAck, Dst: uint8(home), Block: op.block, Aux: uint8(op.p)}
		if s.ch != nil && s.ch.faults.GrantBeforeAcks {
			// FAULT (explorer only): grant with the invalidations in flight.
			op.fanOut(s, op.txn, &h, szControl, others, s.strayInvFn, ack)
			op.unacked = 0
		} else {
			op.fanOut(s, op.txn, &h, szControl, others, op.invFn, ack)
		}
		op.maybeGrant() // covers the no-other-sharers upgrade

	case DirOwned:
		op.recall(d, MsgWIFetch, MsgWIData, op.txn, op.fetchedFn)
	}
}

// fetched marks the block available: read from memory, or recalled
// from the old owner (no invalidations then, so it grants).
func (op *wiOp) fetched() {
	op.haveData = true
	op.maybeGrant()
}

// invalidate runs the multicast's next delivery: the sharer drops its
// copy and acknowledges to the home.
func (op *wiOp) invalidate() {
	q := op.take(op.s)
	op.s.invalidateCopy(q, op.block, op.txn)
	op.sendAck(op.s, op.txn, q, op.ackFn)
}

// invalidateCopy removes q's copy of block, if it still has one, for
// transaction txn's invalidation (0: one that answers no op).
func (s *System) invalidateCopy(q int, block uint32, txn trace.TxnID) {
	if s.caches[q].Present(block) {
		if s.tr != nil && txn != 0 {
			s.tr.CacheTouch(q, txn)
		}
		s.cl.LostCopy(q, block, classify.LossInvalidation)
		s.caches[q].Invalidate(block)
	}
}

// ack counts in one queued invalidation acknowledgement.
func (op *wiOp) ack() {
	op.unacked--
	op.maybeGrant()
}

// maybeGrant books the ownership grant once all acknowledgements are in
// and any needed data has arrived.
func (op *wiOp) maybeGrant() {
	if op.unacked == 0 && op.haveData {
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
	d.release()
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
		op.needData, op.haveData = false, false
		op.start()
		return
	}
	op.perform(ln)
}
