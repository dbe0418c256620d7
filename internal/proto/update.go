package proto

import (
	"coherencesim/internal/cache"
	"coherencesim/internal/classify"
	"coherencesim/internal/trace"
)

// This file implements the update-based protocols (PU and CU).
//
// A store writes through the cache to the home node. The home updates
// memory, multicasts the new word to the other sharers, and tells the
// writer how many acknowledgements to expect; sharers acknowledge
// directly to the writer — booked through the mesh and counted at once,
// except the last one sent, which is the queued event that can complete
// the transaction (multicast). The writer's write-buffer entry retires
// when the home's reply arrives; the acknowledgements drain in the
// background and are awaited only at release points (release
// consistency). An atomic is the same home transaction with a
// read-modify-write in place of the memory write.
//
// PU additionally implements the paper's retention optimization: if the
// home sees an update for a block cached only by the writer, the reply
// instructs the writer to retain future updates — the line moves to
// Exclusive and subsequent stores complete locally until another node
// fetches the block.
//
// CU gives every cached copy a counter: an arriving update increments
// it, any local reference resets it, and at the threshold the copy
// self-invalidates (the "drop"); the node then asks the home to stop
// sending it updates.

// updOp is one PU/CU write-through or atomic. It carries the operation
// along its fixed chain — a store's optional write-allocate fetch (miss,
// fetch), then local, home, locked (by way of a recall and rehome when
// another node retains the block), wrote, the sharers' updates, reply —
// and collects the sharers' acknowledgements, with the stage
// continuations built once per pooled object, so the per-operation
// chain does not allocate in steady state. The op lives until the reply
// and every acknowledgement have arrived: check recycles it then. (A
// store to a retained-private line never leaves the writer and recycles
// in local.) Completion callbacks run from copies of its fields, so
// operations they issue may reuse the op. Its data is a borrowed frame:
// a new sharer's reply block, or a demoted one.
type updOp struct {
	request
	access          // v is an atomic's new value once performed
	old      uint32 // the value v overwrote at the home
	needData bool   // atomic by a non-sharer: the reply carries the block
	replied  bool
	multicast
	updStages
}

// updStages are an updOp's own stage continuations.
type updStages struct {
	missFn   func()              // at the home: fetch the block shared
	fetchFn  func(uint32)        // write-allocate fetch delivered
	rehomeFn func()              // demoted block in memory: record the demotion, re-enter home
	opFn     func(uint32) uint32 // an atomic's read-modify-write
	wroteFn  func()              // memory op complete: multicast + reply
	updFn    func()              // one sharer's update delivered
	replyFn  func()              // at the requester: apply, retire
	ackFn    func()              // one queued sharer acknowledgement arrived
}

func (s *System) newUpdOp(p int, block uint32, word int, acc access) *updOp {
	op, fresh := s.updOps.get()
	*op = updOp{request: op.renew(s, p, block, word), access: acc, multicast: multicast{fan: op.fan}, updStages: op.updStages}
	if fresh {
		op.bind(op.locked)
		op.updStages = updStages{missFn: op.miss, fetchFn: func(uint32) { op.local() }, rehomeFn: op.rehome,
			opFn:    func(old uint32) uint32 { return op.kind.apply(old, op.op1, op.op2) },
			wroteFn: op.wrote, updFn: op.update, replyFn: op.reply, ackFn: op.ack}
	}
	return op
}

// updWrite drains one write-buffer entry under PU/CU. The caches are
// write-allocate ("a processor writes through its cache to the home"):
// a write miss first fetches the block shared, making the writer a
// sharer that will receive others' updates — the behaviour behind the
// paper's MCS-under-PU traffic explosion.
func (s *System) updWrite(p int, a cache.Addr, acc access) {
	block, word := cache.BlockOf(a), cache.WordOf(a)
	c := s.caches[p]
	op := s.newUpdOp(p, block, word, acc)
	if c.Lookup(block) == nil {
		c.CountMiss()
		s.cl.Miss(p, block, word)
		s.ctr.WriteMisses++
		if s.tr != nil {
			op.txn = s.tr.Begin(p, trace.TxnWriteThrough, block, s.e.Now())
		}
		s.sendT(op.txn, &Msg{Kind: MsgReadReq, Src: uint8(p), Dst: uint8(s.HomeOf(block)), Block: block, Word: uint8(word)}, szControl, op.missFn)
		return
	}
	c.CountHit()
	op.local()
}

// updAtomic executes an atomic op at the home memory under PU/CU. The
// requester becomes (or remains) a sharer of the block: if it does not
// cache the block, the reply carries the post-operation block data and
// installs it — so the next processor's atomic on the same word updates
// this copy, as in the paper's description of fetch_and_add.
func (s *System) updAtomic(p int, a cache.Addr, acc access) {
	block, word := cache.BlockOf(a), cache.WordOf(a)
	c := s.caches[p]
	op := s.newUpdOp(p, block, word, acc)
	op.needData = c.Lookup(block) == nil
	if op.needData {
		c.CountMiss()
		s.cl.Miss(p, block, word)
	} else {
		c.CountHit()
	}
	s.addOutstanding(p, 1)
	if s.tr != nil {
		op.txn = s.tr.Begin(p, trace.TxnAtomic, block, s.e.Now())
	}
	op.hdr = Msg{Kind: MsgAtomReq, Src: uint8(p), Dst: uint8(s.HomeOf(block)), Block: block, Word: uint8(word)}
	if op.needData {
		op.hdr.Aux = 1
	}
	s.sendT(op.txn, &op.hdr, szWord, op.homeFn)
}

// miss runs at the home for a write-allocate miss: fetch the block
// shared first; the delivered value re-enters the local write-through
// path at the writer.
func (op *updOp) miss() {
	op.s.homeRead(op.p, op.block, op.word, op.fetchFn)
}

// local issues the write-through for a store whose block is (or was,
// before a racing drop) cached locally.
//
// The writer's own cached copy is NOT updated here: the home serializes
// all writes to the block, and a racing write by another node may be
// ordered after this one — its update message would then overwrite the
// newer value in this cache. Instead the home's reply (which travels the
// same FIFO home-to-writer channel as other writers' update messages,
// and therefore arrives in serialization order) applies the value; until
// the write-buffer entry retires on that reply, the processor's own
// loads are satisfied by write-buffer forwarding.
func (op *updOp) local() {
	s := op.s
	p, block, word, v := op.p, op.block, op.word, op.v
	c := s.caches[p]
	s.cl.Reference(p, block, word)
	if ln := c.Lookup(block); ln != nil {
		ln.Counter = 0
		if ln.State == cache.Exclusive {
			// Retained-private block (PU): the write is entirely local.
			// (A miss-path transaction that raced into retention ends
			// here; the common hit never opened one.)
			retire, txn := op.retire, op.txn
			s.updOps.put(op)
			ln.Data[word] = v
			ln.Dirty = true
			s.cl.GlobalWrite(p, block, word)
			if s.tr != nil {
				s.tr.End(txn, s.e.Now())
			}
			c.FireWatchers(block)
			retire()
			return
		}
	}
	s.ctr.WriteThrough++
	if s.tr != nil && op.txn == 0 {
		op.txn = s.tr.Begin(p, trace.TxnWriteThrough, block, s.e.Now())
	}
	s.addOutstanding(p, 1)
	op.hdr = Msg{Kind: MsgWTReq, Src: uint8(p), Dst: uint8(s.HomeOf(block)), Block: block, Word: uint8(word), Val: v}
	s.sendT(op.txn, &op.hdr, szWord, op.homeFn)
}

// locked demotes a retained-private owner (re-entering home afterwards,
// which re-examines all state) or performs the memory write or the
// read-modify-write.
func (op *updOp) locked() {
	s := op.s
	d := s.entry(op.block)
	if d.State == DirOwned {
		// The demotion's hops are charged to no transaction.
		d.busy = true
		op.recall(d, MsgDemote, MsgDemoteData, 0, op.rehomeFn)
		return
	}
	if s.tr != nil {
		s.tr.DirStart(op.txn, s.e.Now())
	}
	home := s.mems[s.HomeOf(op.block)]
	if !op.isAtomic {
		op.old = home.WriteWord(op.block, op.word, op.v, op.wroteFn)
		return
	}
	op.old, op.v = home.AtomicOp(op.block, op.word, op.opFn, op.wroteFn)
	if op.needData {
		// A new sharer's block is the image this operation left: another
		// request the entry dispatched behind it may write memory before
		// wrote runs.
		op.data = s.store.BorrowFrame()
		copy(op.data, home.Block(op.block))
	}
}

// rehome releases the demoted block's frame, which memory has taken,
// records the demotion and serializes the operation again.
func (op *updOp) rehome() {
	s := op.s
	s.store.ReleaseFrame(op.data)
	op.data = nil
	d := s.entry(op.block)
	d.Demote(op.owner, s.caches[op.owner].Present(op.block))
	d.release()
	op.home()
}

// wrote runs at the home once memory has performed the operation: the
// PU retention decision (stores), the update multicast to the other
// sharers, which arms the ack collection, and the reply — a new
// sharer's atomic reply carries the whole block.
func (op *updOp) wrote() {
	s := op.s
	p, block, word, v := op.p, op.block, op.word, op.v
	d := s.entry(block)
	home := s.HomeOf(block)
	s.cl.GlobalWrite(p, block, word)
	others := s.sharerList(d, p)
	// Retention decision (PU): the block is cached by the writer
	// alone and no transaction is in flight. Both the directory and
	// the writer's line transition at the decision instant — the
	// permission change carries no data, and the writer cannot issue
	// another store before the reply retires this one, so the early
	// line-state change is unobservable except through the protocol
	// behaving consistently under racing requests from other nodes.
	// FAULT (explorer only): phantom retention skips the sole-sharer test.
	if !op.isAtomic && s.cfg.Protocol == PU && !s.cfg.DisableRetention &&
		(len(others) == 0 || s.ch != nil && s.ch.faults.PhantomRetention) && !d.busy &&
		d.State == DirShared && d.Has(p) {
		if ln := s.caches[p].Lookup(block); ln != nil && ln.State == cache.Shared {
			// The grant is this write's serialization point: the
			// line takes the written value here (it matches memory,
			// so the copy stays clean) and no later reply will touch
			// an Exclusive line.
			ln.State = cache.Exclusive
			ln.Data[word] = v
			s.caches[p].FireWatchers(block)
			d.Grant(p)
			s.ctr.Retentions++
		}
	}
	s.mUpdFan.Observe(uint64(len(others)))
	if s.tr != nil && op.txn != 0 && len(others) > 0 {
		s.tr.Fanout(op.txn, trace.FanUpd, s.e.Now())
	}
	s.ctr.UpdatesSent += uint64(len(others))
	h := Msg{Kind: MsgUpd, Src: uint8(home), Block: block, Word: uint8(word), Aux: uint8(p), Val: v, Val2: op.old}
	op.fanOut(s, op.txn, &h, szWord, others, op.updFn, Msg{Kind: MsgUpdAck, Dst: uint8(p), Block: block})
	r := Msg{Kind: MsgWTReply, Src: uint8(home), Dst: uint8(p), Block: block, Word: uint8(word), Val: v, Aux: uint8(len(others))}
	size := szControl
	if op.isAtomic {
		r.Kind, r.Val, r.Val2, r.Data = MsgAtomReply, op.old, v, op.data
		size = szWord
		if op.needData {
			// The requester becomes a sharer; the reply carries the block.
			d.Share(p)
			size = szData
		}
	}
	s.sendT(op.txn, &r, size, op.replyFn)
}

// update runs the multicast's next delivery. On the choice network the
// value comes from the header being delivered, which a stale-value
// fault rewrites.
func (op *updOp) update() {
	s, v := op.s, op.v
	if s.ch != nil {
		v = s.ch.cur.Val
	}
	s.deliverUpdate(op.take(s), op, v)
}

// reply runs at the requester: a store applies the serialized value to
// its own copy (see local: the reply is FIFO-ordered with other writers'
// update messages on the home-to-writer channel); an atomic installs a
// fetched block and applies its new value. The requester-visible
// retirement is recorded before the op counts as replied — with every
// ack in, it drains (and may release a fence) synchronously in check —
// and the completion callback runs last.
func (op *updOp) reply() {
	s := op.s
	p, block, word, v := op.p, op.block, op.word, op.v
	c := s.caches[p]
	if !op.isAtomic {
		if ln := c.Lookup(block); ln != nil && ln.State != cache.Exclusive {
			ln.Data[word] = v
			c.FireWatchers(block)
		}
	} else {
		if op.data != nil {
			s.install(p, block, op.data, cache.Shared)
			s.store.ReleaseFrame(op.data)
			op.data = nil
		}
		if ln := c.Lookup(block); ln != nil {
			ln.Data[word] = v
			ln.Counter = 0
			c.FireWatchers(block)
		}
		s.cl.Reference(p, block, word)
	}
	if s.tr != nil {
		s.tr.Retired(op.txn, s.e.Now())
	}
	a, old := op.access, op.old
	op.replied = true
	op.check()
	a.complete(old)
}

// ack counts in one queued sharer acknowledgement.
func (op *updOp) ack() {
	op.unacked--
	op.check()
}

// check finishes the op once its reply and every expected ack are in.
// Final completion is recorded before drain waiters can fire, so a
// fence stall released by this operation attributes to it; the op
// recycles after them, so operations they issue cannot reuse it early.
func (op *updOp) check() {
	if !op.replied || op.unacked != 0 {
		return
	}
	s := op.s
	if s.tr != nil {
		s.tr.AcksDrained(op.txn, s.e.Now())
	}
	s.completeOutstanding(op.p)
	s.updOps.put(op)
}

// deliverUpdate applies op's update of value v at sharer q: plain
// application under PU, counter-gated application or self-invalidation
// under CU. Every recipient acknowledges to the writer.
func (s *System) deliverUpdate(q int, op *updOp, v uint32) {
	block, word := op.block, op.word
	c := s.caches[q]
	ln := c.Lookup(block)
	if ln == nil {
		// Stale sharer: our drop notice / replacement hint is in flight.
		s.cl.StrayUpdate()
		op.sendAck(s, op.txn, q, op.ackFn)
		return
	}
	if ln.State == cache.Exclusive {
		// The copy was granted retention after this update was
		// serialized: the owner's value is newer, so the update is
		// stale and must not be applied.
		s.cl.StrayUpdate()
		op.sendAck(s, op.txn, q, op.ackFn)
		return
	}
	if s.cfg.Protocol == CU {
		if c.Watched(block) {
			// A parked spinner is logically referencing the block every
			// few cycles (spin compression hides the reads); references
			// reset the competitive counter, so it cannot accumulate.
			ln.Counter = 0
		}
		ln.Counter++
		if ln.Counter >= s.cfg.CUThreshold {
			if s.tr != nil {
				s.tr.CacheTouch(q, op.txn)
			}
			s.cl.DropDelivered(q, block, word)
			s.cl.LostCopy(q, block, classify.LossDrop)
			c.Invalidate(block) // wakes spinners, who will re-miss (drop miss)
			s.ctr.DropNotices++
			s.sendNote(q, block, false /* drop notice */)
			op.sendAck(s, op.txn, q, op.ackFn)
			return
		}
	}
	if s.tr != nil {
		s.tr.CacheTouch(q, op.txn)
	}
	s.cl.UpdateDelivered(q, block, word, op.p)
	c.ApplyUpdate(ln, word, v) // wakes spinners
	op.sendAck(s, op.txn, q, op.ackFn)
}
