package proto

import (
	"coherencesim/internal/cache"
	"coherencesim/internal/classify"
	"coherencesim/internal/sim"
	"coherencesim/internal/trace"
)

// This file implements the update-based protocols (PU and CU).
//
// A store writes through the cache to the home node. The home updates
// memory, multicasts the new word to the other sharers, and tells the
// writer how many acknowledgements to expect; sharers acknowledge
// directly to the writer — booked through the mesh and counted at once,
// except the last one sent, which is the queued event that can complete
// the transaction (ackFan). The writer's write-buffer entry retires when
// the home's reply arrives; the acknowledgements drain in the background
// and are awaited only at release points (release consistency). An
// atomic is the same home transaction with a read-modify-write in place
// of the memory write.
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
// fetch), then local, home, locked, wrote, reply — and collects the
// sharers' acknowledgements, with the stage continuations built once per
// pooled object, so the per-operation chain does not allocate in steady
// state. The op lives until the reply and every expected acknowledgement
// have arrived: check recycles it then, when no in-flight message can
// still reference it. (A store to a retained-private line never leaves
// the writer and recycles in local.) Completion callbacks run from
// copies of its fields, so operations they issue may reuse the op.
type updOp struct {
	s        *System
	p        int
	word     int
	expected int    // acks to collect, known once the home multicasts
	got      int    // acks arrived or booked
	acks     ackFan // the multicast's mesh-crossing acks
	block    uint32
	v        uint32 // store value; an atomic's new value once performed
	old      uint32 // the value v overwrote at the home
	op1, op2 uint32 // atomic operands
	txn      trace.TxnID
	kind     AtomicKind
	isAtomic bool
	needData bool // atomic by a non-sharer: the reply carries the block
	replied  bool
	data     []uint32     // borrowed frame (new-sharer reply), released at reply
	hdr      Msg          // the request's header
	retire   func()       // store completion
	done     func(uint32) // atomic completion
	next     *updOp

	missFn   func()              // at the home: fetch the block shared
	fetchFn  func(uint32)        // write-allocate fetch delivered
	homeFn   func()              // serialize at the directory; also the post-demote re-entry
	lockedFn func()              // entry free: demote a private owner or perform
	opFn     func(uint32) uint32 // an atomic's read-modify-write
	wroteFn  func()              // memory op complete: multicast + reply
	replyFn  func()              // at the requester: apply, retire
	ackFn    func()              // one queued sharer acknowledgement
}

func (s *System) newUpdOp(p int, block uint32, word int) *updOp {
	op := s.updOpFree
	if op == nil {
		op = &updOp{s: s}
		op.missFn = op.miss
		op.fetchFn = func(uint32) { op.local() }
		op.homeFn = op.home
		op.lockedFn = op.locked
		op.opFn = func(old uint32) uint32 { return op.kind.apply(old, op.op1, op.op2) }
		op.wroteFn = op.wrote
		op.replyFn = op.reply
		op.ackFn = op.ack
	} else {
		s.updOpFree = op.next
		op.next = nil
	}
	op.p, op.block, op.word = p, block, word
	op.expected, op.got = 0, 0
	op.isAtomic, op.needData, op.replied = false, false, false
	op.txn = 0
	return op
}

func (op *updOp) recycle() {
	op.retire, op.done, op.data = nil, nil, nil
	op.next = op.s.updOpFree
	op.s.updOpFree = op
}

// updWrite drains one write-buffer entry under PU/CU. The caches are
// write-allocate ("a processor writes through its cache to the home"):
// a write miss first fetches the block shared, making the writer a
// sharer that will receive others' updates — the behaviour behind the
// paper's MCS-under-PU traffic explosion.
func (s *System) updWrite(p int, a cache.Addr, v uint32, retire func()) {
	block, word := cache.BlockOf(a), cache.WordOf(a)
	c := s.caches[p]
	op := s.newUpdOp(p, block, word)
	op.v, op.retire = v, retire
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
func (s *System) updAtomic(p int, a cache.Addr, kind AtomicKind, op1, op2 uint32, done func(old uint32)) {
	block, word := cache.BlockOf(a), cache.WordOf(a)
	c := s.caches[p]
	op := s.newUpdOp(p, block, word)
	op.isAtomic = true
	op.kind, op.op1, op.op2, op.done = kind, op1, op2, done
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
			op.recycle()
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

// home serializes the operation at the directory, waiting out a busy
// entry. A post-demote re-entry keeps its original home-arrival time
// (set-if-zero).
func (op *updOp) home() {
	if s := op.s; s.tr != nil {
		s.tr.HomeArrive(op.txn, s.e.Now())
	}
	op.s.whenFree(op.s.entry(op.block), &op.hdr, op.lockedFn)
}

// locked demotes a retained-private owner (re-entering home afterwards,
// which re-examines all state) or performs the memory write or the
// read-modify-write.
func (op *updOp) locked() {
	s := op.s
	d := s.entry(op.block)
	if d.State == DirOwned {
		s.demoteOwner(d, op.block, op.p, op.homeFn)
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

// demoteOwner fetches a retained-private block back from its owner,
// refreshes memory, downgrades the owner to Shared, and then continues
// requester p's transaction. This path is rare (another node touching a
// retained block); it keeps plain closures rather than a pooled object.
func (s *System) demoteOwner(d *dirEntry, block uint32, p int, then func()) {
	d.busy = true
	home := s.HomeOf(block)
	owner := d.Owner
	s.send(&Msg{Kind: MsgDemote, Src: uint8(home), Dst: uint8(owner), Block: block, Aux: uint8(p)}, szControl, func() {
		data := s.takeOwnerData(owner, block, true /* demote */)
		s.send(&Msg{Kind: MsgDemoteData, Src: uint8(owner), Dst: uint8(home), Block: block, Aux: uint8(p), Data: data}, szData, func() {
			s.mems[home].WriteBlock(block, data, func() {
				d.Demote(owner, s.caches[owner].Present(block))
				s.release(d)
				then()
			})
			// WriteBlock consumed the data at call time.
			s.store.ReleaseFrame(data)
		})
	})
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
	op.acks = ackFan{left: len(others), kind: MsgUpdAck, block: block}
	for _, q := range others {
		s.ctr.UpdatesSent++
		um := s.newUpdMsg(op)
		um.h = Msg{Kind: MsgUpd, Src: uint8(home), Dst: uint8(q), Block: block, Word: uint8(word), Aux: uint8(p), Val: v, Val2: op.old}
		um.sentAt = s.e.Now()
		s.sendT(op.txn, &um.h, szWord, um.fn)
	}
	op.expected = len(others)
	r := Msg{Kind: MsgWTReply, Src: uint8(home), Dst: uint8(p), Block: block, Word: uint8(word), Val: v, Aux: uint8(op.expected)}
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
	isAtomic, retire, done, old := op.isAtomic, op.retire, op.done, op.old
	op.replied = true
	op.check()
	if isAtomic {
		done(old)
	} else {
		retire()
	}
}

// ack counts one queued sharer acknowledgement.
func (op *updOp) ack() {
	op.got++
	op.check()
}

// check finishes the op once its reply and every expected ack are in.
// Final completion is recorded before drain waiters can fire, so a
// fence stall released by this operation attributes to it; the op
// recycles after them, so operations they issue cannot reuse it early.
func (op *updOp) check() {
	if !op.replied || op.got != op.expected {
		return
	}
	s := op.s
	if s.tr != nil {
		s.tr.AcksDrained(op.txn, s.e.Now())
	}
	s.completeOutstanding(op.p)
	op.recycle()
}

// deliverUpdate applies an update message at sharer q: plain application
// under PU, counter-gated application or self-invalidation under CU.
// Every recipient acknowledges to the writer.
func (s *System) deliverUpdate(q int, block uint32, word int, v uint32, writer int, op *updOp, sentAt sim.Time) {
	c := s.caches[q]
	ln := c.Lookup(block)
	if ln == nil {
		// Stale sharer: our drop notice / replacement hint is in flight.
		s.cl.StrayUpdate()
		s.sendAck(q, op, sentAt)
		return
	}
	if ln.State == cache.Exclusive {
		// The copy was granted retention after this update was
		// serialized: the owner's value is newer, so the update is
		// stale and must not be applied.
		s.cl.StrayUpdate()
		s.sendAck(q, op, sentAt)
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
			s.sendAck(q, op, sentAt)
			return
		}
	}
	if s.tr != nil {
		s.tr.CacheTouch(q, op.txn)
	}
	s.cl.UpdateDelivered(q, block, word, writer)
	c.ApplyUpdate(block, word, v) // wakes spinners
	s.sendAck(q, op, sentAt)
}

// sendAck sends a sharer acknowledgement to the operation's requester,
// closing the per-target fan-out span.
func (s *System) sendAck(from int, op *updOp, sentAt sim.Time) {
	at, queued := s.sendFanAck(&op.acks, op.txn, from, op.p, op.ackFn)
	if !queued {
		op.got++ // op.ack, minus a check that cannot pass
	}
	if s.tr != nil && op.txn != 0 {
		s.tr.TargetAck(op.txn, from, sentAt, at)
	}
}

// updMsg carries one update delivery to a sharer. Messages recycle
// through a free list on System, each with a delivery closure built
// once for the object's lifetime, so the per-sharer multicast — the
// dominant residual allocation in update-protocol runs — stops
// allocating in steady state. The object is returned to the free list
// before deliverUpdate runs (its fields are copied out first), so
// deliveries triggered from within deliverUpdate may reuse it.
type updMsg struct {
	s      *System
	h      Msg      // the update; its value is what the network delivers
	sentAt sim.Time // fan-out dispatch time (trace per-target span start)
	op     *updOp
	next   *updMsg
	fn     func()
}

func (s *System) newUpdMsg(op *updOp) *updMsg {
	m := s.updFree
	if m == nil {
		m = &updMsg{s: s}
		m.fn = m.deliver
	} else {
		s.updFree = m.next
	}
	m.op = op
	return m
}

func (m *updMsg) deliver() {
	s := m.s
	h, op, sentAt := &m.h, m.op, m.sentAt
	q, block, word, v, writer := h.Dst, h.Block, h.Word, h.Val, h.Aux
	m.op = nil
	m.next = s.updFree
	s.updFree = m
	s.deliverUpdate(int(q), block, int(word), v, int(writer), op, sentAt)
}
