package proto

import (
	"coherencesim/internal/cache"
	"coherencesim/internal/classify"
	"coherencesim/internal/trace"
)

// Read performs processor p's load from address a. done(value) is
// scheduled when the value is available: immediately (same timestamp) on
// a cache hit, or after the miss transaction completes. The 1-cycle
// instruction charge is the machine layer's responsibility.
func (s *System) Read(p int, a cache.Addr, done func(v uint32)) {
	block, word := cache.BlockOf(a), cache.WordOf(a)
	c := s.caches[p]
	if ln := c.Lookup(block); ln != nil {
		c.CountHit()
		ln.Counter = 0 // a reference resets the CU counter
		s.cl.Reference(p, block, word)
		done(ln.Data[word])
		return
	}
	c.CountMiss()
	s.cl.Miss(p, block, word)
	s.ctr.Reads++
	m := s.newReadMsg(p, block, word, done)
	if s.tr != nil {
		m.txn = s.tr.Begin(p, trace.TxnRead, block, s.e.Now())
	}
	s.sendT(m.txn, &m.hdr, szControl, m.homeFn)
}

// homeRead starts read-miss servicing for callers already at the home
// (the update protocols' write-allocate fetch); the request message has
// already been charged by the caller.
func (s *System) homeRead(p int, block uint32, word int, done func(uint32)) {
	s.newReadMsg(p, block, word, done).home()
}

// readMsg carries one read-miss transaction along its message chain —
// request to the home, directory serialization, memory fetch or owner
// recall, data reply, install at the requester — with the stage
// continuations built once per pooled object. The block payload travels
// in a borrowed frame released when the requester has installed it.
type readMsg struct {
	request
	done func(uint32)
	readStages
}

// readStages are a readMsg's own stage continuations.
type readStages struct {
	gotFn      func() // memory read complete: book reply, release entry
	recalledFn func() // the owner's block in memory: demote, book reply
	installFn  func() // at the requester: install and deliver
}

func (s *System) newReadMsg(p int, block uint32, word int, done func(uint32)) *readMsg {
	m, fresh := s.reads.get()
	*m = readMsg{request: m.renew(s, p, block, word), done: done, readStages: m.readStages}
	if fresh {
		m.bind(m.locked)
		m.readStages = readStages{gotFn: m.got, recalledFn: m.recalled, installFn: m.install}
	}
	m.hdr = Msg{Kind: MsgReadReq, Src: uint8(p), Dst: uint8(s.HomeOf(block)), Block: block, Word: uint8(word)}
	return m
}

// locked services the read at the home once the entry is free: the
// frame is filled at memory-issue time.
func (m *readMsg) locked() {
	s := m.s
	if s.tr != nil {
		s.tr.DirStart(m.txn, s.e.Now())
	}
	d := s.entry(m.block)
	d.busy = true
	if d.State == DirOwned {
		m.recall(d, MsgReadFetch, MsgReadData, m.txn, m.recalledFn)
		return
	}
	m.data = s.store.BorrowFrame()
	s.mems[s.HomeOf(m.block)].ReadBlockInto(m.block, m.data, m.gotFn)
}

// got books the data reply once memory has produced the block. The reply
// is booked before releasing the entry: a queued invalidating
// transaction must not reach the requester first (mesh FIFO).
func (m *readMsg) got() { m.reply(m.s.entry(m.block)) }

// recalled rebuilds the sharer set and books the data reply.
func (m *readMsg) recalled() {
	s := m.s
	d := s.entry(m.block)
	d.Demote(m.owner, s.caches[m.owner].Present(m.block))
	m.reply(d)
}

// reply books the data reply and then releases the entry.
func (m *readMsg) reply(d *dirEntry) {
	s := m.s
	d.Share(m.p)
	s.sendT(m.txn, &Msg{Kind: MsgReadReply, Src: uint8(s.HomeOf(m.block)), Dst: uint8(m.p), Block: m.block, Word: uint8(m.word), Data: m.data}, szData, m.installFn)
	d.release()
}

// install runs at the requester: install the block, deliver the value.
// The message recycles before the callback runs (fields copied out
// first), so reads issued from within done may reuse it. The trace span
// ends before done runs, so a stall released by this read attributes to
// the completed transaction.
func (m *readMsg) install() {
	s := m.s
	p, block, word, data, done, txn := m.p, m.block, m.word, m.data, m.done, m.txn
	s.reads.put(m)
	ln := s.install(p, block, data, cache.Shared)
	s.store.ReleaseFrame(data)
	ln.Counter = 0
	s.cl.Reference(p, block, word)
	if s.tr != nil {
		s.tr.End(txn, s.e.Now())
	}
	done(ln.Data[word])
}

// Write performs the protocol transaction for one drained write-buffer
// entry. retire() is scheduled when the entry may leave the buffer (the
// write is globally ordered); full completion — all sharer
// acknowledgements under the update protocols — is tracked separately via
// Outstanding/WhenDrained for release-consistency fences.
func (s *System) Write(p int, a cache.Addr, v uint32, retire func()) {
	acc := access{v: v, retire: retire}
	if s.cfg.Protocol == WI {
		s.wiAccess(p, a, acc)
		return
	}
	s.updWrite(p, a, acc)
}

// Atomic executes an atomic read-modify-write at address a and schedules
// done(old) on completion. Under WI the operation executes in p's cache
// controller on an exclusive copy; under PU/CU it executes at the home
// memory, which multicasts the new value to sharers.
func (s *System) Atomic(p int, a cache.Addr, kind AtomicKind, op1, op2 uint32, done func(old uint32)) {
	s.ctr.Atomics++
	acc := access{kind: kind, op1: op1, op2: op2, isAtomic: true, done: done}
	if s.cfg.Protocol == WI {
		s.wiAccess(p, a, acc)
		return
	}
	s.updAtomic(p, a, acc)
}

// access is one store or atomic as its processor issued it: the value
// or the operation, and the completion to run.
type access struct {
	v        uint32 // store value
	op1, op2 uint32 // atomic operands
	kind     AtomicKind
	isAtomic bool
	retire   func()       // store completion
	done     func(uint32) // atomic completion
}

// complete runs the access's completion; an atomic's gets old, the
// value it overwrote.
func (a *access) complete(old uint32) {
	if a.isAtomic {
		a.done(old)
		return
	}
	a.retire()
}

// FlushBlock performs a user-level block flush of a's block from p's
// cache (the PowerPC-style instruction the update-conscious MCS lock
// uses). The local invalidation is done when FlushBlock returns; the
// directory notification (with data write-back if the copy was dirty)
// proceeds asynchronously.
func (s *System) FlushBlock(p int, a cache.Addr) {
	block := cache.BlockOf(a)
	old, was := s.caches[p].Flush(block)
	if !was {
		return
	}
	s.ctr.Flushes++
	s.cl.LostCopy(p, block, classify.LossFlush)
	if old.Dirty || old.State == cache.Exclusive {
		s.sendWriteback(p, block, old.Data[:])
	} else {
		s.sendNote(p, block, true /* relinquish */)
	}
}

// takeOwnerData extracts the current data for block from the owning node:
// its live cache line, or — if the line was just evicted/flushed and the
// write-back is still in flight — that write-back's data, in which case
// the write-back is cancelled (the caller is about to refresh memory
// itself). When demote is true a live line is downgraded to Shared;
// when false it is invalidated (write-invalidate ownership transfer). The returned slice is a borrowed frame the caller's
// transaction must release once consumed.
func (s *System) takeOwnerData(owner int, block uint32, demote bool) []uint32 {
	if ln := s.caches[owner].Lookup(block); ln != nil {
		data := s.store.BorrowFrame()
		copy(data, ln.Data[:])
		if demote {
			ln.State = cache.Shared
			ln.Dirty = false
		} else {
			s.cl.LostCopy(owner, block, classify.LossInvalidation)
			s.caches[owner].Invalidate(block)
		}
		return data
	}
	for _, m := range s.procs[owner].wbs {
		if m.block == block && !m.cancelled {
			// Supersede the in-flight write-back: we are servicing it
			// now. Its frame stays with it, released on its (discarded)
			// arrival; copy into a fresh frame.
			m.cancelled = true
			out := s.store.BorrowFrame()
			copy(out, m.data)
			return out
		}
	}
	panic("proto: owner holds neither line nor pending write-back")
}
