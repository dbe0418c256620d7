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
// and are awaited only at release points (release consistency).
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

// updTx tracks one write-through (or atomic) transaction's completion:
// the home's reply carries the expected acknowledgement count, and
// sharers acknowledge directly.
type updTx struct {
	s        *System
	p        int
	expected int
	got      int
	acks     ackFan // armed by the home before its multicast
	replied  bool
	finished bool
	txn      trace.TxnID // owning transaction (0 = untraced)
	ackFn    func()      // cached t.ack closure, shared by every ack message
	next     *updTx      // free list link (see newUpdTx)
}

// newUpdTx takes a transaction from the System's free list, or builds
// one (with its ack closure) on first use. A transaction is recycled by
// check() the moment it finishes: at that point the reply and every
// expected acknowledgement have arrived, so no in-flight message can
// still reference it.
func newUpdTx(s *System, p int) *updTx {
	s.addOutstanding(p, 1)
	t := s.txFree
	if t == nil {
		t = &updTx{s: s}
		t.ackFn = t.ack
	} else {
		s.txFree = t.next
		t.next = nil
	}
	t.p = p
	t.expected = -1
	t.got = 0
	t.replied = false
	t.finished = false
	t.txn = 0
	return t
}

func (t *updTx) ack() {
	t.got++
	t.check()
}

func (t *updTx) reply(expected int) {
	t.expected = expected
	t.replied = true
	t.check()
}

func (t *updTx) check() {
	if !t.finished && t.replied && t.got == t.expected {
		t.finished = true
		// Final completion is recorded before drain waiters can fire, so
		// a fence stall released by this transaction attributes to it.
		if t.s.tr != nil {
			t.s.tr.AcksDrained(t.txn, t.s.e.Now())
		}
		t.txn = 0
		t.s.completeOutstanding(t.p)
		t.next = t.s.txFree
		t.s.txFree = t
	}
}

// updWrite drains one write-buffer entry under PU/CU. The caches are
// write-allocate ("a processor writes through its cache to the home"):
// a write miss first fetches the block shared, making the writer a
// sharer that will receive others' updates — the behaviour behind the
// paper's MCS-under-PU traffic explosion.
func (s *System) updWrite(p int, a cache.Addr, v uint32, retire func()) {
	block, word := cache.BlockOf(a), cache.WordOf(a)
	c := s.caches[p]
	m := s.newWrMsg(p, block, word, v, retire)
	if c.Lookup(block) == nil {
		c.CountMiss()
		s.cl.Miss(p, block, word)
		s.ctr.WriteMisses++
		if s.tr != nil {
			m.txn = s.tr.Begin(p, trace.TxnWriteThrough, block, s.e.Now())
		}
		s.sendT(m.txn, &Msg{Kind: MsgReadReq, Src: uint8(p), Dst: uint8(s.HomeOf(block)), Block: block, Word: uint8(word)}, szControl, m.missFn)
		return
	}
	c.CountHit()
	m.local()
}

// wrMsg carries one write-through transaction along its fixed message
// chain — optional write-allocate fetch, request to the home, directory
// serialization, memory write, reply to the writer — with the stage
// continuations built once per pooled object, so the per-write closure
// chain does not allocate in steady state. The object is recycled when
// the write completes locally (retention) or when the reply retires it;
// its fields are copied out (and references cleared) first, so writes
// triggered from within the completion handler may reuse it.
type wrMsg struct {
	s        *System
	p        int
	word     int
	expected int
	block    uint32
	v        uint32
	old      uint32 // the value v overwrote at the home
	hdr      Msg    // the write-through's header
	txn      trace.TxnID
	tx       *updTx
	retire   func()
	next     *wrMsg
	missFn   func()       // miss: fetch the block shared, then continue locally
	fetchFn  func(uint32) // write-allocate fetch delivered
	reqFn    func()       // req: serialize at the home directory
	wroteFn  func()       // wrote: memory write done, multicast + reply
	replyFn  func()       // reply: apply at writer, retire
}

func (s *System) newWrMsg(p int, block uint32, word int, v uint32, retire func()) *wrMsg {
	m := s.wrFree
	if m == nil {
		m = &wrMsg{s: s}
		m.missFn = m.miss
		m.fetchFn = func(uint32) { m.local() }
		m.reqFn = m.req
		m.wroteFn = m.wrote
		m.replyFn = m.reply
	} else {
		s.wrFree = m.next
		m.next = nil
	}
	m.p, m.block, m.word, m.v, m.retire = p, block, word, v, retire
	m.txn = 0
	return m
}

func (m *wrMsg) recycle() {
	m.tx, m.retire = nil, nil
	m.next = m.s.wrFree
	m.s.wrFree = m
}

// miss runs at the home for a write-allocate miss: fetch the block
// shared first; the delivered value re-enters the local write-through
// path at the writer.
func (m *wrMsg) miss() {
	m.s.homeRead(m.p, m.block, m.word, m.fetchFn)
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
func (m *wrMsg) local() {
	s := m.s
	p, block, word, v := m.p, m.block, m.word, m.v
	c := s.caches[p]
	s.cl.Reference(p, block, word)
	if ln := c.Lookup(block); ln != nil {
		ln.Counter = 0
		if ln.State == cache.Exclusive {
			// Retained-private block (PU): the write is entirely local.
			// (A miss-path transaction that raced into retention ends
			// here; the common hit never opened one.)
			retire, txn := m.retire, m.txn
			m.recycle()
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
	if s.tr != nil && m.txn == 0 {
		m.txn = s.tr.Begin(p, trace.TxnWriteThrough, block, s.e.Now())
	}
	m.tx = newUpdTx(s, p)
	m.tx.txn = m.txn
	m.hdr = Msg{Kind: MsgWTReq, Src: uint8(p), Dst: uint8(s.HomeOf(block)), Block: block, Word: uint8(word), Val: v}
	s.sendT(m.txn, &m.hdr, szWord, m.reqFn)
}

// req serializes the write-through at the directory: it waits out a
// busy entry and demotes a retained-private owner, re-examining all
// state on each retry (reqFn re-enters here).
func (m *wrMsg) req() {
	s := m.s
	if s.tr != nil {
		s.tr.HomeArrive(m.txn, s.e.Now()) // set-if-zero: retries keep the first arrival
	}
	d := s.entry(m.block)
	if d.busy {
		s.whenFree(d, &m.hdr, m.reqFn)
		return
	}
	if d.State == DirOwned {
		s.demoteOwner(d, m.block, m.p, m.reqFn)
		return
	}
	if s.tr != nil {
		s.tr.DirStart(m.txn, s.e.Now())
	}
	m.old = s.mems[s.HomeOf(m.block)].WriteWord(m.block, m.word, m.v, m.wroteFn)
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

// wrote applies a write-through at the home once memory has taken the
// word: update multicast and reply (with PU retention decision).
func (m *wrMsg) wrote() {
	s := m.s
	p, block, word, v, tx := m.p, m.block, m.word, m.v, m.tx
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
	if s.cfg.Protocol == PU && !s.cfg.DisableRetention &&
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
	if s.tr != nil && m.txn != 0 && len(others) > 0 {
		s.tr.Fanout(m.txn, trace.FanUpd, s.e.Now())
	}
	s.multicast(m.txn, tx, others, block, word, v, m.old)
	m.expected = len(others)
	s.sendT(m.txn, &Msg{Kind: MsgWTReply, Src: uint8(home), Dst: uint8(p), Block: block, Word: uint8(word), Val: v, Aux: uint8(m.expected)}, szControl, m.replyFn)
}

// reply runs at the writer: it applies the serialized value, accounts
// the acknowledgement expectation, and retires the write-buffer entry.
// The transaction's requester-visible retirement is recorded before
// tx.reply — a zero-ack transaction drains (and may release a fence)
// synchronously inside that call.
func (m *wrMsg) reply() {
	s := m.s
	p, block, word, v := m.p, m.block, m.word, m.v
	tx, retire, expected, txn := m.tx, m.retire, m.expected, m.txn
	m.recycle()
	// Apply the serialized value to the writer's own copy (see local:
	// the reply is FIFO-ordered with other writers' update messages on
	// the home-to-writer channel).
	if ln := s.caches[p].Lookup(block); ln != nil && ln.State != cache.Exclusive {
		ln.Data[word] = v
		s.caches[p].FireWatchers(block)
	}
	if s.tr != nil {
		s.tr.Retired(txn, s.e.Now())
	}
	tx.reply(expected)
	retire()
}

// deliverUpdate applies an update message at sharer q: plain application
// under PU, counter-gated application or self-invalidation under CU.
// Every recipient acknowledges to the writer.
func (s *System) deliverUpdate(q int, block uint32, word int, v uint32, writer int, tx *updTx, sentAt sim.Time) {
	c := s.caches[q]
	ln := c.Lookup(block)
	if ln == nil {
		// Stale sharer: our drop notice / replacement hint is in flight.
		s.cl.StrayUpdate()
		s.sendAck(q, tx, sentAt)
		return
	}
	if ln.State == cache.Exclusive {
		// The copy was granted retention after this update was
		// serialized: the owner's value is newer, so the update is
		// stale and must not be applied.
		s.cl.StrayUpdate()
		s.sendAck(q, tx, sentAt)
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
				s.tr.CacheTouch(q, tx.txn)
			}
			s.cl.DropDelivered(q, block, word)
			s.cl.LostCopy(q, block, classify.LossDrop)
			c.Invalidate(block) // wakes spinners, who will re-miss (drop miss)
			s.ctr.DropNotices++
			s.sendNote(q, block, false /* drop notice */)
			s.sendAck(q, tx, sentAt)
			return
		}
	}
	if s.tr != nil {
		s.tr.CacheTouch(q, tx.txn)
	}
	s.cl.UpdateDelivered(q, block, word, writer)
	c.ApplyUpdate(block, word, v) // wakes spinners
	s.sendAck(q, tx, sentAt)
}

// sendAck sends a sharer acknowledgement to the transaction's writer,
// closing the per-target fan-out span.
func (s *System) sendAck(from int, tx *updTx, sentAt sim.Time) {
	at, queued := s.sendFanAck(&tx.acks, tx.txn, from, tx.p, tx.ackFn)
	if !queued {
		tx.got++ // tx.ack, minus a check that cannot pass
	}
	if s.tr != nil && tx.txn != 0 {
		s.tr.TargetAck(tx.txn, from, sentAt, at)
	}
}

// multicast sends the update of (block, word) to v, which overwrote old,
// to others on behalf of tx's writer, arming tx's ack collection first.
func (s *System) multicast(txn trace.TxnID, tx *updTx, others []int, block uint32, word int, v, old uint32) {
	home := s.HomeOf(block)
	tx.acks = ackFan{left: len(others), kind: MsgUpdAck, block: block}
	for _, q := range others {
		s.ctr.UpdatesSent++
		um := s.newUpdMsg(tx)
		um.h = Msg{Kind: MsgUpd, Src: uint8(home), Dst: uint8(q), Block: block, Word: uint8(word), Aux: uint8(tx.p), Val: v, Val2: old}
		um.sentAt = s.e.Now()
		s.sendT(txn, &um.h, szWord, um.fn)
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
	tx     *updTx
	next   *updMsg
	fn     func()
}

func (s *System) newUpdMsg(tx *updTx) *updMsg {
	m := s.updFree
	if m == nil {
		m = &updMsg{s: s}
		m.fn = m.deliver
	} else {
		s.updFree = m.next
	}
	m.tx = tx
	return m
}

func (m *updMsg) deliver() {
	s := m.s
	h, tx, sentAt := &m.h, m.tx, m.sentAt
	q, block, word, v, writer := h.Dst, h.Block, h.Word, h.Val, h.Aux
	m.tx = nil
	m.next = s.updFree
	s.updFree = m
	s.deliverUpdate(int(q), block, int(word), v, int(writer), tx, sentAt)
}

// updAtomic executes an atomic op at the home memory under PU/CU. The
// requester becomes (or remains) a sharer of the block: if it does not
// cache the block, the reply carries the post-operation block data and
// installs it — so the next processor's atomic on the same word updates
// this copy, as in the paper's description of fetch_and_add.
func (s *System) updAtomic(p int, a cache.Addr, kind AtomicKind, op1, op2 uint32, done func(old uint32)) {
	block, word := cache.BlockOf(a), cache.WordOf(a)
	c := s.caches[p]
	needData := c.Lookup(block) == nil
	if needData {
		c.CountMiss()
		s.cl.Miss(p, block, word)
	} else {
		c.CountHit()
	}
	m := s.newAtomMsg(p, block, word)
	m.kind, m.op1, m.op2 = kind, op1, op2
	m.needData = needData
	m.tx = newUpdTx(s, p)
	m.done = done
	if s.tr != nil {
		m.txn = s.tr.Begin(p, trace.TxnAtomic, block, s.e.Now())
		m.tx.txn = m.txn
	}
	m.hdr = Msg{Kind: MsgAtomReq, Src: uint8(p), Dst: uint8(s.HomeOf(block)), Block: block, Word: uint8(word)}
	if needData {
		m.hdr.Aux = 1
	}
	s.sendT(m.txn, &m.hdr, szWord, m.homeFn)
}

// atomMsg carries one update-protocol atomic along its message chain —
// request to the home, directory serialization (demoting a private owner
// first), the read-modify-write at memory, update multicast, reply to
// the requester — with stage continuations built once per pooled object.
// A block payload for a new sharer travels in a borrowed frame.
type atomMsg struct {
	s        *System
	p        int
	word     int
	expected int
	block    uint32
	op1, op2 uint32
	old      uint32
	newV     uint32
	txn      trace.TxnID
	kind     AtomicKind
	needData bool
	data     []uint32 // borrowed frame (new-sharer reply), released at reply
	hdr      Msg      // the request's header
	tx       *updTx
	done     func(uint32)
	next     *atomMsg

	homeFn  func()              // serialize at the directory; also the post-demote re-entry
	lockFn  func()              // entry free: demote owner or execute
	opFn    func(uint32) uint32 // the read-modify-write function
	wroteFn func()              // memory op complete: multicast + reply
	replyFn func()              // at the requester: install/apply, finish
}

func (s *System) newAtomMsg(p int, block uint32, word int) *atomMsg {
	m := s.atFree
	if m == nil {
		m = &atomMsg{s: s}
		m.homeFn = m.home
		m.lockFn = m.locked
		m.opFn = func(old uint32) uint32 { return m.kind.apply(old, m.op1, m.op2) }
		m.wroteFn = m.wrote
		m.replyFn = m.reply
	} else {
		s.atFree = m.next
		m.next = nil
	}
	m.p, m.block, m.word = p, block, word
	m.txn = 0
	return m
}

// home serializes the atomic at the directory. A post-demote re-entry
// keeps its original home-arrival time (set-if-zero).
func (m *atomMsg) home() {
	if s := m.s; s.tr != nil {
		s.tr.HomeArrive(m.txn, s.e.Now())
	}
	m.s.whenFree(m.s.entry(m.block), &m.hdr, m.lockFn)
}

// locked demotes a private owner (re-entering home afterwards, which
// re-examines all state) or executes the operation.
func (m *atomMsg) locked() {
	s := m.s
	d := s.entry(m.block)
	if d.State == DirOwned {
		s.demoteOwner(d, m.block, m.p, m.homeFn)
		return
	}
	if s.tr != nil {
		s.tr.DirStart(m.txn, s.e.Now())
	}
	home := s.mems[s.HomeOf(m.block)]
	m.old, m.newV = home.AtomicOp(m.block, m.word, m.opFn, m.wroteFn)
	if m.needData {
		// A new sharer's block is the image this operation left: another
		// request the entry dispatched behind it may write memory before
		// wrote runs.
		m.data = s.store.BorrowFrame()
		copy(m.data, home.Block(m.block))
	}
}

// wrote runs once memory has performed the read-modify-write: multicast
// the new value to the other sharers and reply to the requester (with
// the whole block when it is a new sharer).
func (m *atomMsg) wrote() {
	s := m.s
	d := s.entry(m.block)
	home := s.HomeOf(m.block)
	s.cl.GlobalWrite(m.p, m.block, m.word)
	others := s.sharerList(d, m.p)
	s.mUpdFan.Observe(uint64(len(others)))
	if s.tr != nil && m.txn != 0 && len(others) > 0 {
		s.tr.Fanout(m.txn, trace.FanUpd, s.e.Now())
	}
	s.multicast(m.txn, m.tx, others, m.block, m.word, m.newV, m.old)
	m.expected = len(others)
	size := szWord
	if m.needData {
		// The requester becomes a sharer; the reply carries the block.
		d.Share(m.p)
		size = szData
	}
	s.sendT(m.txn, &Msg{Kind: MsgAtomReply, Src: uint8(home), Dst: uint8(m.p), Block: m.block, Word: uint8(m.word),
		Val: m.old, Val2: m.newV, Aux: uint8(m.expected), Data: m.data}, size, m.replyFn)
}

// reply runs at the requester: install the block if it was fetched,
// apply the new value to the cached copy, and finish the transaction.
// The message recycles before the callbacks run (fields copied first).
func (m *atomMsg) reply() {
	s := m.s
	p, block, word, newV, old := m.p, m.block, m.word, m.newV, m.old
	data, tx, done, expected, txn := m.data, m.tx, m.done, m.expected, m.txn
	m.data, m.tx, m.done = nil, nil, nil
	m.next = s.atFree
	s.atFree = m
	if data != nil {
		s.install(p, block, data, cache.Shared)
		s.store.ReleaseFrame(data)
	}
	if ln := s.caches[p].Lookup(block); ln != nil {
		ln.Data[word] = newV
		ln.Counter = 0
		s.caches[p].FireWatchers(block)
	}
	s.cl.Reference(p, block, word)
	// Retire the span before tx.reply: with zero expected acks the
	// reply drains synchronously and fires AcksDrained immediately.
	if s.tr != nil {
		s.tr.Retired(txn, s.e.Now())
	}
	tx.reply(expected)
	done(old)
}
