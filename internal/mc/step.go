package mc

import (
	"fmt"
	"math/bits"

	"coherencesim/internal/cache"
	"coherencesim/internal/proto"
)

// This file is the model's transition function: the guarded actions.
// Every handler mirrors one event handler in internal/proto (the file
// and function are named in comments), executing atomically over the
// model state; a directory decision is a call to the same
// proto.DirRecord transition the handler makes. Memory latency collapses
// into the action — sound because the implementation holds the directory
// entry busy across a memory access, so no other transaction for the
// block can observe the window; what the model deliberately keeps is
// per-(src,dst) channel FIFO, the only ordering property the
// implementation's correctness arguments use.

// action is one guarded action: an operation issue or the delivery of
// the head message of a channel.
type action struct {
	issue       bool
	p           uint8  // issue: processor
	kind        OpKind // issue: operation
	block, word uint8  // issue: target
	src, dst    uint8  // deliver: channel
}

// enabled enumerates the actions enabled in st, in a fixed
// deterministic order: issues (processor-, kind-, block-, word-major),
// then deliveries (src-, dst-major).
func (m protoModel) enabled(st *state) []action {
	cfg, kinds := m.cfg, m.cfg.OpSet
	if len(kinds) == 0 {
		kinds = []OpKind{OpRead, OpWrite, OpAtomic, OpFlush}
	}
	var acts []action
	for p := 0; p < cfg.Procs; p++ {
		pr := &st.procs[p]
		if pr.op.active || int(pr.issued) >= cfg.OpsPerProc {
			continue
		}
		for _, k := range kinds {
			for b := 0; b < cfg.Blocks; b++ {
				if k == OpFlush {
					acts = append(acts, action{issue: true, p: uint8(p), kind: k, block: uint8(b)})
					continue
				}
				for w := 0; w < cfg.Words; w++ {
					acts = append(acts, action{issue: true, p: uint8(p), kind: k, block: uint8(b), word: uint8(w)})
				}
			}
		}
	}
	for s := 0; s < cfg.Procs; s++ {
		for d := 0; d < cfg.Procs; d++ {
			if len(st.chans[s][d]) > 0 {
				acts = append(acts, action{src: uint8(s), dst: uint8(d)})
			}
		}
	}
	return acts
}

// stepCtx applies one action of the model to a state, collecting any
// model-internal error (the analogue of an implementation panic) instead
// of crashing, so fault-injected variants surface cleanly as violations.
type stepCtx struct {
	protoModel
	st  *state
	err string
}

// observer collects the architectural results of operations — what the
// simulated program would see — for conformance comparison.
type observer struct {
	readVals []uint8 // value delivered by each completed read, in order
	atomOlds []uint8 // old value returned by each atomic, in order
}

func (x *stepCtx) errf(format string, args ...interface{}) {
	if x.err == "" {
		x.err = fmt.Sprintf(format, args...)
	}
}

// apply runs one action on a copy of st, validating its guard first (a
// replayed trace may name any action).
func (m protoModel) apply(st *state, a action) (*state, string) {
	x := &stepCtx{protoModel: m, st: st.clone()}
	switch {
	case a.issue && (int(a.p) >= x.cfg.Procs || x.st.procs[a.p].op.active || int(x.st.procs[a.p].issued) >= x.cfg.OpsPerProc):
		x.errf("issue action not enabled: %v", a)
	case a.issue && (int(a.block) >= x.cfg.Blocks || int(a.word) >= x.cfg.Words):
		x.errf("issue action out of bounds: %v", a)
	case a.issue:
		x.issue(a.p, a.kind, a.block, a.word)
	case int(a.src) >= x.cfg.Procs || int(a.dst) >= x.cfg.Procs || len(x.st.chans[a.src][a.dst]) == 0:
		x.errf("deliver action not enabled: %v", a)
	default:
		x.deliver(a.src, a.dst)
	}
	return x.st, x.err
}

// clearLine invalidates a line, zeroing every field so canonically equal
// states encode identically.
func clearLine(ln *line) { *ln = line{} }

// complete retires processor p's in-flight operation.
func (x *stepCtx) complete(p uint8) { x.st.procs[p].op = procOp{} }

// maybeFinishTx completes a write-through/atomic once the home reply has
// arrived and every expected sharer acknowledgement is in (the updTx
// check(); completion implies the release-consistency drain).
func (x *stepCtx) maybeFinishTx(p uint8) {
	op := &x.st.procs[p].op
	if !op.txActive || !op.txReplied {
		return
	}
	if op.txGot > op.txExp {
		x.errf("p%d received %d acks, expected %d", p, op.txGot, op.txExp)
		return
	}
	if op.txGot == op.txExp {
		op.txActive = false
		x.complete(p)
	}
}

// issue starts operation (kind, block, word) on processor p.
// Mirrors the machine layer calling proto.Read/Write/Atomic/FlushBlock.
func (x *stepCtx) issue(p uint8, kind OpKind, block, word uint8) {
	st, cfg := x.st, x.cfg
	pr := &st.procs[p]
	pr.op = procOp{active: true, kind: kind, block: block, word: word}
	op := &pr.op
	home := cfg.homeOf(block)
	switch kind {
	case OpRead: // proto.(*System).Read
		ln := &st.lines[p][block]
		if ln.state != cache.Invalid {
			ln.ctr = 0 // a reference resets the CU counter
			x.observeRead(ln.data[word])
			x.complete(p)
			pr.issued++
			return
		}
		pr.issued++
		st.send(msg{kind: mReadReq, src: p, dst: home, block: block, word: word})

	case OpWrite:
		op.val = writeValue(cfg, p, pr.issued)
		pr.issued++
		st.recordValue(block, word, op.val)
		if cfg.Protocol == proto.WI {
			x.wiStart(p) // wi.go wiWrite -> op.start
			return
		}
		// update.go updWrite: write-allocate fetch on a miss, then the
		// local write-through path.
		if st.lines[p][block].state == cache.Invalid {
			st.send(msg{kind: mReadReq, src: p, dst: home, block: block, word: word})
			return
		}
		x.updLocal(p)

	case OpAtomic:
		pr.issued++
		if cfg.Protocol == proto.WI {
			x.wiStart(p) // wi.go wiAtomic -> op.start
			return
		}
		// update.go updAtomic: executes at the home memory.
		op.txActive = true
		var aux uint8
		if st.lines[p][block].state == cache.Invalid {
			aux = auxNeedData
		}
		st.send(msg{kind: mAtomReq, src: p, dst: home, block: block, word: word, aux: aux})

	case OpFlush: // api.go FlushBlock
		pr.issued++
		ln := &st.lines[p][block]
		if ln.state == cache.Invalid {
			x.complete(p)
			return
		}
		old := *ln
		clearLine(ln)
		if old.dirty || old.state == cache.Exclusive {
			// proto.sendWriteback: data parks in pendingWB until the home
			// consumes the write-back (or a forwarded request cancels it).
			pr.pwbValid[block] = true
			pr.pwbData[block] = old.data
			st.send(msg{kind: mWB, src: p, dst: home, block: block, hasData: true, data: old.data})
		} else {
			st.send(msg{kind: mNote, src: p, dst: home, block: block, aux: auxNoteRelinquish})
		}
		// FlushBlock's done() is immediate: the flush completes locally
		// while the write-back/notice is still in flight.
		x.complete(p)

	default:
		x.errf("unknown op kind %d", kind)
	}
}

func (x *stepCtx) observeRead(v uint8) {
	if x.obs != nil {
		x.obs.readVals = append(x.obs.readVals, v)
	}
}

func (x *stepCtx) observeAtomic(old uint8) {
	if x.obs != nil {
		x.obs.atomOlds = append(x.obs.atomOlds, old)
	}
}

// wiStart mirrors wiOp.start: perform locally on an Exclusive copy,
// otherwise request ownership from the home (upgrade or write miss).
func (x *stepCtx) wiStart(p uint8) {
	st := x.st
	op := &st.procs[p].op
	if st.lines[p][op.block].state == cache.Exclusive {
		x.wiPerform(p)
		return
	}
	st.send(msg{kind: mWIReq, src: p, dst: x.cfg.homeOf(op.block), block: op.block})
}

// wiPerform mirrors wiOp.perform: the deferred store/atomic on the
// now-exclusive line.
func (x *stepCtx) wiPerform(p uint8) {
	st := x.st
	op := st.procs[p].op
	ln := &st.lines[p][op.block]
	if ln.state != cache.Exclusive {
		x.errf("p%d performing on non-exclusive line (block %d)", p, op.block)
		return
	}
	if op.kind == OpAtomic {
		old := ln.data[op.word]
		nv := old + 1
		st.recordValue(op.block, op.word, nv)
		ln.data[op.word] = nv
		ln.dirty = true
		x.observeAtomic(old)
		x.complete(p)
		return
	}
	ln.data[op.word] = op.val
	ln.dirty = true
	x.complete(p)
}

// updLocal mirrors wrMsg.local: a retained-private block takes the write
// locally; otherwise the value writes through to the home. The writer's
// own copy is deliberately NOT updated here — the home's serialized
// reply applies it (see update.go's ordering comment).
func (x *stepCtx) updLocal(p uint8) {
	st := x.st
	op := &st.procs[p].op
	ln := &st.lines[p][op.block]
	if ln.state != cache.Invalid {
		ln.ctr = 0
		if ln.state == cache.Exclusive {
			ln.data[op.word] = op.val
			ln.dirty = true
			x.complete(p)
			return
		}
	}
	op.txActive = true
	st.send(msg{kind: mWTReq, src: p, dst: x.cfg.homeOf(op.block), block: op.block, word: op.word, val: op.val})
}

// deliver pops and dispatches the head message of channel (src, dst).
func (x *stepCtx) deliver(src, dst uint8) {
	q := x.st.chans[src][dst]
	m := q[0]
	if len(q) == 1 {
		x.st.chans[src][dst] = nil
	} else {
		x.st.chans[src][dst] = q[1:]
	}
	x.dispatch(m)
}

func (x *stepCtx) dispatch(m msg) {
	switch m.kind {
	case mReadReq, mWIReq, mWTReq, mAtomReq, mWB:
		x.dispatchHome(m)
	case mReadOwnerFetch:
		x.readOwnerFetch(m)
	case mReadOwnerData:
		x.readOwnerData(m)
	case mReadReply:
		x.readReply(m)
	case mInv:
		x.invalidate(m)
	case mInvAck:
		x.invAck(m)
	case mWIOwnerFetch:
		x.wiOwnerFetch(m)
	case mWIOwnerData:
		x.wiOwnerData(m)
	case mGrant:
		x.granted(m)
	case mUpd:
		x.update(m)
	case mUpdAck:
		x.updAck(m)
	case mWTReply:
		x.wtReply(m)
	case mAtomReply:
		x.atomReply(m)
	case mNote:
		x.note(m)
	case mDemote:
		x.demote(m)
	case mDemoteData:
		x.demoteData(m)
	default:
		x.errf("delivered unknown message kind %v", m.kind)
	}
}

// dispatchHome routes the requests that serialize on the directory
// entry: a busy entry queues them (proto.whenFree / wrMsg.req), and
// release re-dispatches the queue in FIFO order.
func (x *stepCtx) dispatchHome(m msg) {
	d := &x.st.dirs[m.block]
	if d.busy {
		d.waitq = append(d.waitq, m)
		return
	}
	switch m.kind {
	case mReadReq:
		x.homeRead(m)
	case mWIReq:
		x.homeWIReq(m)
	case mWTReq:
		if d.State == proto.DirOwned {
			x.startDemote(m)
			return
		}
		x.homeWriteThrough(m)
	case mAtomReq:
		if d.State == proto.DirOwned {
			x.startDemote(m)
			return
		}
		x.homeAtomic(m)
	case mWB:
		x.homeWriteback(m)
	}
}

// release mirrors proto.release: clear busy, then dispatch queued
// transactions until one takes the entry busy again.
func (x *stepCtx) release(block uint8) {
	d := &x.st.dirs[block]
	d.busy = false
	d.pend = pendTx{}
	for !d.busy && len(d.waitq) > 0 {
		m := d.waitq[0]
		if len(d.waitq) == 1 {
			d.waitq = nil
		} else {
			d.waitq = d.waitq[1:]
		}
		x.dispatchHome(m)
	}
}

// takeOwnerData mirrors proto.takeOwnerData: the owner's live line, or
// the pending write-back buffer of a line flushed while the transaction
// was in flight (cancelling the in-flight write-back).
func (x *stepCtx) takeOwnerData(owner, block uint8, demote bool) ([MaxWords]uint8, bool) {
	st := x.st
	ln := &st.lines[owner][block]
	if ln.state != cache.Invalid {
		data := ln.data
		if demote {
			ln.state = cache.Shared
			ln.dirty = false
		} else {
			clearLine(ln)
		}
		return data, true
	}
	pr := &st.procs[owner]
	if pr.pwbValid[block] {
		data := pr.pwbData[block]
		pr.pwbValid[block] = false
		pr.pwbData[block] = [MaxWords]uint8{}
		pr.cancelled[block]++
		return data, true
	}
	x.errf("owner p%d holds neither line nor pending write-back for block %d", owner, block)
	return [MaxWords]uint8{}, false
}

// homeRead mirrors readMsg.locked/got: serve from memory (uncached or
// shared) or start an owner fetch.
func (x *stepCtx) homeRead(m msg) {
	st := x.st
	d := &st.dirs[m.block]
	if d.State != proto.DirOwned {
		// Memory read + reply booking collapse into this action; the
		// entry's busy window has no observable interior.
		d.Share(int(m.src))
		st.send(msg{kind: mReadReply, src: m.dst, dst: m.src, block: m.block, word: m.word, hasData: true, data: st.mem[m.block]})
		return
	}
	d.busy = true
	d.pend = pendTx{kind: pendRead, req: m.src, word: m.word}
	st.send(msg{kind: mReadOwnerFetch, src: m.dst, dst: uint8(d.Owner), block: m.block})
}

// readOwnerFetch mirrors readMsg.ownerFetch: demote the owner to Shared
// and forward its data home.
func (x *stepCtx) readOwnerFetch(m msg) {
	data, ok := x.takeOwnerData(m.dst, m.block, true)
	if !ok {
		return
	}
	x.st.send(msg{kind: mReadOwnerData, src: m.dst, dst: x.cfg.homeOf(m.block), block: m.block, hasData: true, data: data})
}

// readOwnerData mirrors readMsg.ownerBack/ownerWrote: refresh memory,
// rebuild the sharer set, and book the data reply.
func (x *stepCtx) readOwnerData(m msg) {
	st := x.st
	d := &st.dirs[m.block]
	if !d.busy || d.pend.kind != pendRead {
		x.errf("read owner data for block %d without a pending read", m.block)
		return
	}
	st.mem[m.block] = m.data
	d.Demote(int(m.src), st.lines[m.src][m.block].state != cache.Invalid)
	d.Share(int(d.pend.req))
	st.send(msg{kind: mReadReply, src: m.dst, dst: d.pend.req, block: m.block, word: d.pend.word, hasData: true, data: m.data})
	x.release(m.block)
}

// readReply mirrors readMsg.install: install the block Shared (keeping
// an existing line if a racing transaction installed one first) and
// complete the read — or, for a write-allocate fetch, continue into the
// local write-through path (wrMsg.fetchFn).
func (x *stepCtx) readReply(m msg) {
	st := x.st
	p := m.dst
	ln := &st.lines[p][m.block]
	if ln.state == cache.Invalid {
		*ln = line{state: cache.Shared, data: m.data}
	}
	ln.ctr = 0
	op := &st.procs[p].op
	if !op.active {
		x.errf("read reply at p%d with no operation in flight", p)
		return
	}
	switch op.kind {
	case OpRead:
		x.observeRead(ln.data[m.word])
		x.complete(p)
	case OpWrite:
		x.updLocal(p)
	default:
		x.errf("read reply at p%d during %v", p, op.kind)
	}
}

// homeWIReq mirrors wiOp.locked: fetch from memory (uncached), multicast
// invalidations and collect acks (shared), or fetch-and-invalidate the
// old owner (owned).
func (x *stepCtx) homeWIReq(m msg) {
	st := x.st
	d := &st.dirs[m.block]
	p, home := m.src, m.dst
	if d.State == proto.DirOwned {
		d.busy = true
		d.pend = pendTx{kind: pendWIOwner, req: p}
		st.send(msg{kind: mWIOwnerFetch, src: home, dst: uint8(d.Owner), block: m.block})
		return
	}
	// An upgrade (the requester's own shared copy) needs no data.
	grant := msg{kind: mGrant, src: home, dst: p, block: m.block}
	if !d.Has(int(p)) {
		grant.hasData, grant.data = true, st.mem[m.block]
	}
	if others := d.Sharers &^ (1 << p); others != 0 {
		for q := uint8(0); q < uint8(x.cfg.Procs); q++ {
			if others&(1<<q) != 0 {
				st.send(msg{kind: mInv, src: home, dst: q, block: m.block})
			}
		}
		// The faulty home grants while the invalidations are in flight.
		if !x.cfg.Faults.GrantBeforeAcks {
			d.busy = true
			d.pend = pendTx{kind: pendWI, req: p, acks: uint8(bits.OnesCount64(others)), hasData: grant.hasData, data: grant.data}
			return
		}
	}
	d.Grant(int(p))
	st.send(grant)
}

// invalidate mirrors invMsg.deliver: drop the copy and acknowledge to
// the home.
func (x *stepCtx) invalidate(m msg) {
	st := x.st
	q := m.dst
	ln := &st.lines[q][m.block]
	if ln.state != cache.Invalid {
		clearLine(ln)
	}
	if x.cfg.Faults.SkipInvAck && int(q) == x.cfg.Procs-1 {
		return // FAULT: the last node swallows its acknowledgement.
	}
	st.send(msg{kind: mInvAck, src: q, dst: x.cfg.homeOf(m.block), block: m.block})
}

// invAck mirrors wiOp.ack/maybeGrant/grant.
func (x *stepCtx) invAck(m msg) {
	st := x.st
	d := &st.dirs[m.block]
	if !d.busy || d.pend.kind != pendWI || d.pend.acks == 0 {
		if x.cfg.Faults.GrantBeforeAcks {
			return // the faulty home ignores the acks it never waited for
		}
		x.errf("stray invalidation ack for block %d", m.block)
		return
	}
	d.pend.acks--
	if d.pend.acks > 0 {
		return
	}
	st.send(msg{kind: mGrant, src: m.dst, dst: d.pend.req, block: m.block, hasData: d.pend.hasData, data: d.pend.data})
	d.Grant(int(d.pend.req))
	x.release(m.block)
}

// wiOwnerFetch mirrors wiOp.ownerFetch: take the old owner's data,
// invalidating its copy.
func (x *stepCtx) wiOwnerFetch(m msg) {
	data, ok := x.takeOwnerData(m.dst, m.block, false)
	if !ok {
		return
	}
	x.st.send(msg{kind: mWIOwnerData, src: m.dst, dst: x.cfg.homeOf(m.block), block: m.block, hasData: true, data: data})
}

// wiOwnerData mirrors wiOp.ownerBack/ownerWrote: refresh memory and
// grant ownership with the fetched data.
func (x *stepCtx) wiOwnerData(m msg) {
	st := x.st
	d := &st.dirs[m.block]
	if !d.busy || d.pend.kind != pendWIOwner {
		x.errf("WI owner data for block %d without a pending acquisition", m.block)
		return
	}
	st.mem[m.block] = m.data
	st.send(msg{kind: mGrant, src: m.dst, dst: d.pend.req, block: m.block, hasData: true, data: m.data})
	d.Grant(int(d.pend.req))
	x.release(m.block)
}

// granted mirrors wiOp.granted: take ownership at the requester and run
// the deferred store/atomic.
func (x *stepCtx) granted(m msg) {
	st := x.st
	p := m.dst
	op := &st.procs[p].op
	if !op.active || (op.kind != OpWrite && op.kind != OpAtomic) {
		x.errf("grant at p%d with no write/atomic in flight", p)
		return
	}
	ln := &st.lines[p][m.block]
	switch {
	case ln.state != cache.Invalid:
		ln.state = cache.Exclusive
		if m.hasData {
			ln.data = m.data
		}
	case m.hasData:
		*ln = line{state: cache.Exclusive, data: m.data}
	default:
		// Upgrade grant raced with losing the line: retry from scratch.
		// Unreachable without conflict evictions; kept to mirror wi.go.
		x.wiStart(p)
		return
	}
	x.wiPerform(p)
}

// startDemote mirrors proto.demoteOwner's opening: fetch the retained
// block back, holding the entry busy, then re-dispatch the request.
func (x *stepCtx) startDemote(m msg) {
	st := x.st
	d := &st.dirs[m.block]
	d.busy = true
	d.pend = pendTx{kind: pendDemote, resume: m}
	st.send(msg{kind: mDemote, src: m.dst, dst: uint8(d.Owner), block: m.block})
}

// demote mirrors demoteOwner's owner-side closure.
func (x *stepCtx) demote(m msg) {
	data, ok := x.takeOwnerData(m.dst, m.block, true)
	if !ok {
		return
	}
	x.st.send(msg{kind: mDemoteData, src: m.dst, dst: x.cfg.homeOf(m.block), block: m.block, hasData: true, data: data})
}

// demoteData mirrors demoteOwner's completion: refresh memory, rebuild
// the sharer set, release the entry, then re-dispatch the demoting
// request (which re-examines all state).
func (x *stepCtx) demoteData(m msg) {
	st := x.st
	d := &st.dirs[m.block]
	if !d.busy || d.pend.kind != pendDemote {
		x.errf("demote data for block %d without a pending demote", m.block)
		return
	}
	resume := d.pend.resume
	st.mem[m.block] = m.data
	d.Demote(int(m.src), st.lines[m.src][m.block].state != cache.Invalid)
	x.release(m.block)
	x.dispatchHome(resume)
}

// homeWriteThrough mirrors wrMsg.req (non-busy, non-owned) and wrote:
// memory word write, PU retention decision, update multicast, reply.
func (x *stepCtx) homeWriteThrough(m msg) {
	st, cfg := x.st, x.cfg
	d := &st.dirs[m.block]
	p := m.src
	home := m.dst
	old := st.mem[m.block][m.word]
	st.mem[m.block][m.word] = m.val
	others := d.Sharers &^ (1 << p)
	if cfg.Protocol == proto.PU && !cfg.DisableRetention &&
		(others == 0 || cfg.Faults.PhantomRetention) &&
		d.State == proto.DirShared && d.Has(int(p)) {
		if ln := &st.lines[p][m.block]; ln.state == cache.Shared {
			// Retention: the line takes the written value at the decision
			// instant and stays clean (it matches memory).
			ln.state = cache.Exclusive
			ln.data[m.word] = m.val
			d.Grant(int(p))
		}
	}
	uv := m.val
	if cfg.Faults.StaleUpdateValue {
		uv = old // FAULT: multicast the pre-write value.
	}
	for q := uint8(0); q < uint8(cfg.Procs); q++ {
		if others&(1<<q) != 0 {
			st.send(msg{kind: mUpd, src: home, dst: q, block: m.block, word: m.word, val: uv, aux: p})
		}
	}
	st.send(msg{kind: mWTReply, src: home, dst: p, block: m.block, word: m.word, val: m.val, aux: uint8(bits.OnesCount64(others))})
}

// update mirrors deliverUpdate: plain application under PU,
// counter-gated application or self-invalidation under CU; stale
// sharers and retained owners acknowledge without applying.
func (x *stepCtx) update(m msg) {
	st, cfg := x.st, x.cfg
	q := m.dst
	writer := m.aux
	ack := msg{kind: mUpdAck, src: q, dst: writer, block: m.block}
	ln := &st.lines[q][m.block]
	if ln.state == cache.Invalid || ln.state == cache.Exclusive {
		st.send(ack)
		return
	}
	if cfg.Protocol == proto.CU {
		// No parked spinners in the model, so no Watched() reset.
		ln.ctr++
		if ln.ctr >= cfg.CUThreshold {
			clearLine(ln)
			if !cfg.Faults.SkipDropNotice {
				st.send(msg{kind: mNote, src: q, dst: cfg.homeOf(m.block), block: m.block, aux: auxNoteDrop})
			}
			st.send(ack)
			return
		}
	}
	ln.data[m.word] = m.val
	st.send(ack)
}

// updAck mirrors updTx.ack.
func (x *stepCtx) updAck(m msg) {
	op := &x.st.procs[m.dst].op
	if !op.active || !op.txActive {
		x.errf("stray update ack at p%d", m.dst)
		return
	}
	op.txGot++
	x.maybeFinishTx(m.dst)
}

// wtReply mirrors wrMsg.reply: apply the serialized value to the
// writer's own (non-exclusive) copy, account the expected acks, retire.
func (x *stepCtx) wtReply(m msg) {
	st := x.st
	p := m.dst
	op := &st.procs[p].op
	if !op.active || op.kind != OpWrite || !op.txActive {
		x.errf("write-through reply at p%d with no write in flight", p)
		return
	}
	if ln := &st.lines[p][m.block]; ln.state == cache.Shared {
		ln.data[m.word] = m.val
	}
	op.txReplied = true
	op.txExp = m.aux
	x.maybeFinishTx(p)
}

// homeAtomic mirrors atomMsg.locked/wrote: the read-modify-write at the
// home memory, update multicast, reply (with the block for a new
// sharer).
func (x *stepCtx) homeAtomic(m msg) {
	st, cfg := x.st, x.cfg
	d := &st.dirs[m.block]
	p := m.src
	home := m.dst
	old := st.mem[m.block][m.word]
	nv := old + 1
	st.recordValue(m.block, m.word, nv)
	st.mem[m.block][m.word] = nv
	others := d.Sharers &^ (1 << p)
	uv := nv
	if cfg.Faults.StaleUpdateValue {
		uv = old
	}
	for q := uint8(0); q < uint8(cfg.Procs); q++ {
		if others&(1<<q) != 0 {
			st.send(msg{kind: mUpd, src: home, dst: q, block: m.block, word: m.word, val: uv, aux: p})
		}
	}
	reply := msg{kind: mAtomReply, src: home, dst: p, block: m.block, word: m.word,
		val: old, val2: nv, aux: uint8(bits.OnesCount64(others))}
	if m.aux&auxNeedData != 0 {
		// The requester becomes a sharer; the reply carries the block.
		reply.hasData = true
		reply.data = st.mem[m.block]
		d.Share(int(p))
	}
	st.send(reply)
}

// atomReply mirrors atomMsg.reply: install the block if fetched, apply
// the new value to the cached copy, finish the transaction.
func (x *stepCtx) atomReply(m msg) {
	st := x.st
	p := m.dst
	op := &st.procs[p].op
	if !op.active || op.kind != OpAtomic || !op.txActive {
		x.errf("atomic reply at p%d with no atomic in flight", p)
		return
	}
	if m.hasData {
		if ln := &st.lines[p][m.block]; ln.state == cache.Invalid {
			*ln = line{state: cache.Shared, data: m.data}
		}
	}
	if ln := &st.lines[p][m.block]; ln.state != cache.Invalid {
		ln.data[m.word] = m.val2
		ln.ctr = 0
	}
	op.txReplied = true
	op.txExp = m.aux
	x.observeAtomic(m.val)
	x.maybeFinishTx(p)
}

// homeWriteback mirrors wbMsg.locked/homeWriteback: apply (or discard a
// cancelled) dirty write-back and fix the directory.
func (x *stepCtx) homeWriteback(m msg) {
	st := x.st
	p := m.src
	pr := &st.procs[p]
	if pr.cancelled[m.block] > 0 {
		// A forwarded request already consumed this write-back.
		pr.cancelled[m.block]--
		return
	}
	st.mem[m.block] = m.data
	pr.pwbValid[m.block] = false
	pr.pwbData[m.block] = [MaxWords]uint8{}
	st.dirs[m.block].Relinquish(int(p))
}

// note mirrors noteMsg.deliver: a clean-flush relinquish or a
// replacement-hint / CU drop notice. Notes do not serialize on busy
// entries (they never touch in-flight transaction state).
func (x *stepCtx) note(m msg) {
	d := &x.st.dirs[m.block]
	if m.aux == auxNoteRelinquish {
		d.Relinquish(int(m.src))
		return
	}
	d.Drop(int(m.src))
}
