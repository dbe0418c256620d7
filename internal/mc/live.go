package mc

import (
	"fmt"

	"coherencesim/internal/cache"
	"coherencesim/internal/proto"
	"coherencesim/internal/walk"
)

// The protocols as the walker's model: one live proto.Explorer, the
// protocols' own handlers on the untimed choice network. A state is the
// schedule that reaches it; apply replays that schedule from a reset
// system when the explorer is elsewhere — stateless search with a
// visited set — so nothing of the system is ever copied.

// action is one guarded action: an operation issue or the delivery of
// the head message of a channel.
type action struct {
	issue       bool
	p           uint8  // issue: processor
	kind        OpKind // issue: operation
	block, word uint8  // issue: target
	src, dst    uint8  // deliver: channel
}

// node is a state of the walk: the last action of its schedule and the
// state that action left.
type node struct {
	parent *node
	act    action
}

// liveProc is the driver's record of one processor's operation. A
// processor issues its next operation only after the previous one has
// retired and drained its acknowledgements, as at a release fence.
type liveProc struct {
	active           bool
	kind             OpKind
	block, word, val uint8 // val: a write's value
	issued           uint8
	// The update protocols' acknowledgement accounting: the home's
	// reply arrived, the acks it announced, the acks arrived.
	replied  bool
	exp, got uint8
}

// liveModel drives the explorer through the walker's four methods.
type liveModel struct {
	cfg   Config
	x     *proto.Explorer
	root  *node
	at    *node // the state x is in
	procs [MaxProcs]liveProc
	// hist is the data-value containment invariant's bookkeeping: a
	// bitset (over the bounded value domain) of every value that has
	// legitimately existed for the word — initial zero, issued write
	// values, and atomic results. Monotone, so it is part of the state.
	hist [MaxBlocks][MaxWords]uint64
	// dumps caches each block's picture of dumped.
	dumps  [MaxBlocks]proto.BlockDump
	dumped *node
	path   []action
	// calls are each processor's completion callbacks, bound once so
	// that an issue builds none.
	calls [MaxProcs]liveCalls
}

// liveCalls are one processor's completion callbacks: an operation
// retires (a read's or an atomic's done, a store's retire, a flush's
// done), then waits for its acknowledgements to drain.
type liveCalls struct {
	retired, drained func()
	read, atomic     func(uint32)
}

// model is m as the walker sees it.
func (m *liveModel) model() walk.Model[*node, action] {
	return walk.Model[*node, action]{Enabled: m.enabled, Apply: m.apply, Encode: m.encode, Check: m.check}
}

func newLiveModel(cfg Config) *liveModel {
	pc := proto.DefaultConfig(cfg.Protocol, cfg.Procs)
	pc.CUThreshold = cfg.CUThreshold
	pc.DisableRetention = cfg.DisableRetention
	m := &liveModel{cfg: cfg, x: proto.NewExplorer(cfg.Procs, pc, cfg.Faults), root: &node{}}
	for p := range m.calls[:cfg.Procs] {
		c := &m.calls[p]
		c.drained = func() { m.procs[p] = liveProc{issued: m.procs[p].issued} }
		c.retired = func() { m.x.WhenDrained(p, c.drained) }
		c.read = func(uint32) { c.retired() }
		c.atomic = func(old uint32) {
			pr := &m.procs[p]
			m.record(uint32(pr.block), int(pr.word), old+1)
			c.retired()
		}
	}
	m.reset()
	return m
}

// reset returns the explorer and the driver to the initial state.
func (m *liveModel) reset() {
	m.x.Reset()
	m.procs = [MaxProcs]liveProc{}
	m.hist = [MaxBlocks][MaxWords]uint64{}
	for b := 0; b < m.cfg.Blocks; b++ {
		for w := 0; w < m.cfg.Words; w++ {
			m.hist[b][w] = 1 // bit 0: the initial zero
		}
	}
	m.at, m.dumped = m.root, nil
}

// goTo brings the explorer to s, replaying s's schedule after a reset
// unless it is there already.
func (m *liveModel) goTo(s *node) {
	if m.at == s {
		return
	}
	m.reset()
	m.path = m.path[:0]
	for n := s; n.parent != nil; n = n.parent {
		m.path = append(m.path, n.act)
	}
	for i := len(m.path) - 1; i >= 0; i-- {
		if why := m.step(m.path[i]); why != "" {
			panic("mc: a replayed schedule diverged: " + why)
		}
	}
	m.at = s
}

// enabled enumerates the actions enabled in s, in a fixed
// deterministic order: issues (processor-, kind-, block-, word-major),
// then deliveries (src-, dst-major).
func (m *liveModel) enabled(s *node) []action {
	m.goTo(s)
	cfg, kinds := m.cfg, m.cfg.OpSet
	if len(kinds) == 0 {
		kinds = []OpKind{OpRead, OpWrite, OpAtomic, OpFlush}
	}
	var acts []action
	for p := 0; p < cfg.Procs; p++ {
		if pr := &m.procs[p]; pr.active || int(pr.issued) >= cfg.OpsPerProc {
			continue
		}
		for _, k := range kinds {
			for b := 0; b < cfg.Blocks; b++ {
				for w := 0; w < cfg.Words; w++ {
					acts = append(acts, action{issue: true, p: uint8(p), kind: k, block: uint8(b), word: uint8(w)})
					if k == OpFlush {
						break // a flush names a block, not a word
					}
				}
			}
		}
	}
	for src := 0; src < cfg.Procs; src++ {
		for dst := 0; dst < cfg.Procs; dst++ {
			if len(m.x.Queue(src, dst)) > 0 {
				acts = append(acts, action{src: uint8(src), dst: uint8(dst)})
			}
		}
	}
	return acts
}

// apply runs a from s, validating its guard first (a replayed trace may
// name any action). A panic in the protocols is the walk.Internal verdict,
// and the explorer is reset.
func (m *liveModel) apply(s *node, a action) (next *node, why string) {
	defer func() {
		if r := recover(); r != nil {
			m.reset()
			next, why = nil, fmt.Sprint("panic: ", r)
		}
	}()
	m.goTo(s)
	if why := m.step(a); why != "" {
		return nil, why
	}
	m.at = &node{parent: s, act: a}
	return m.at, ""
}

// step runs one action on the explorer, or refuses it unchanged.
func (m *liveModel) step(a action) string {
	cfg := m.cfg
	if a.issue {
		switch pr := &m.procs[a.p%MaxProcs]; {
		case int(a.p) >= cfg.Procs || pr.active || int(pr.issued) >= cfg.OpsPerProc:
			return fmt.Sprintf("issue action not enabled: %v", a)
		case int(a.block) >= cfg.Blocks || int(a.word) >= cfg.Words:
			return fmt.Sprintf("issue action out of bounds: %v", a)
		}
		m.issue(a)
	} else {
		src, dst := int(a.src), int(a.dst)
		if src >= cfg.Procs || dst >= cfg.Procs || len(m.x.Queue(src, dst)) == 0 {
			return fmt.Sprintf("deliver action not enabled: %v", a)
		}
		// Account a reply or an ack before its handler can retire the
		// operation.
		switch h, pr := m.x.Queue(src, dst)[0], &m.procs[dst]; h.Kind {
		case proto.MsgWTReply, proto.MsgAtomReply:
			pr.replied, pr.exp = true, h.Aux
		case proto.MsgUpdAck:
			pr.got++
		}
		m.x.Deliver(src, dst)
		// An update-protocol atomic's result exists once the home has
		// computed it, which is when its reply leaves. Every message a
		// delivery leads to, memory completions included, leaves from
		// the node it was delivered to, and an issue sends only
		// requests, so dst's outgoing channels hold every new reply.
		for q := 0; q < cfg.Procs; q++ {
			for _, h := range m.x.Queue(dst, q) {
				if h.Kind == proto.MsgAtomReply {
					m.record(h.Block, int(h.Word), h.Val2)
				}
			}
		}
	}
	return ""
}

// issue starts operation a on its processor, as the machine layer would
// drive proto.System, and runs the memory accesses it starts.
func (m *liveModel) issue(a action) {
	p, pr := int(a.p), &m.procs[a.p]
	*pr = liveProc{active: true, kind: a.kind, block: a.block, word: a.word, issued: pr.issued + 1}
	addr := cache.Addr(uint32(a.block)*cache.BlockBytes + uint32(a.word)*cache.WordBytes)
	c := &m.calls[p]
	switch a.kind {
	case OpRead:
		m.x.Read(p, addr, c.read)
	case OpWrite:
		pr.val = writeValue(m.cfg, a.p, pr.issued-1)
		m.record(uint32(a.block), int(a.word), uint32(pr.val))
		m.x.Write(p, addr, uint32(pr.val), c.retired)
	case OpAtomic:
		m.x.Atomic(p, addr, proto.FetchAdd, 1, 0, c.atomic)
	case OpFlush:
		m.x.FlushBlock(p, addr, c.retired)
	}
	m.x.Drain()
}

// record marks v as a legitimate value for (block, word). Values beyond
// the bitset width would make the containment invariant silently
// vacuous; the configuration bounds keep write values and atomic results
// below it.
func (m *liveModel) record(block uint32, word int, v uint32) {
	if v >= 64 {
		panic(fmt.Sprintf("mc: value %d exceeds containment bitset", v))
	}
	m.hist[block][word] |= 1 << v
}

// legal reports whether v has ever legitimately existed for the word.
func (m *liveModel) legal(block uint32, word int, v uint32) bool {
	return v < 64 && m.hist[block][word]&(1<<v) != 0
}

// dump returns block b's picture of the explorer's state, taken once per
// state.
func (m *liveModel) dump(b int) *proto.BlockDump {
	if m.dumped != m.at {
		for i := 0; i < m.cfg.Blocks; i++ {
			m.x.DumpBlock(uint32(i), &m.dumps[i])
		}
		m.dumped = m.at
	}
	return &m.dumps[b]
}

// quiescent reports whether no message is in flight and no operation is
// pending — the stable states on which the full invariant suite runs.
func (m *liveModel) quiescent() bool {
	for p := 0; p < m.cfg.Procs; p++ {
		if m.procs[p].active {
			return false
		}
		for d := 0; d < m.cfg.Procs; d++ {
			if len(m.x.Queue(p, d)) > 0 {
				return false
			}
		}
	}
	return true
}

// encode appends the canonical encoding of s: everything a later action
// can observe. That is each processor's operation, each block's picture
// with the headers queued at its directory entry and its value history,
// and the headers in flight on every channel, in order. The protocols'
// transaction objects are left out: what they hold is carried by the
// headers in flight and the operations they serve.
func (m *liveModel) encode(s *node, buf []byte) []byte {
	m.goTo(s)
	cfg := m.cfg
	for p := 0; p < cfg.Procs; p++ {
		pr := &m.procs[p]
		buf = append(buf, flag(pr.active)|flag(pr.replied)<<1, byte(pr.kind), pr.block, pr.word, pr.val,
			pr.issued, pr.exp, pr.got)
	}
	for b := 0; b < cfg.Blocks; b++ {
		bd := m.dump(b)
		var d proto.DirDump // zero for a block the home never saw
		if bd.Dir != nil {
			d = *bd.Dir
		}
		buf = append(buf, byte(d.State), byte(d.Owner), byte(d.Sharers), flag(d.Busy))
		buf = m.appendMsgs(buf, m.x.Waiting(uint32(b)))
		buf = appendWords(buf, bd.Memory, cfg.Words)
		for p := range bd.Lines {
			ln := &bd.Lines[p]
			buf = append(buf, byte(ln.State), flag(ln.Dirty), ln.Counter, flag(ln.PendingWB), byte(ln.CancelledWB))
			buf = appendWords(buf, ln.Data, cfg.Words)
		}
		for w := 0; w < cfg.Words; w++ {
			h := m.hist[b][w]
			buf = append(buf, byte(h), byte(h>>8), byte(h>>16), byte(h>>24),
				byte(h>>32), byte(h>>40), byte(h>>48), byte(h>>56))
		}
	}
	for src := 0; src < cfg.Procs; src++ {
		for dst := 0; dst < cfg.Procs; dst++ {
			buf = m.appendMsgs(buf, m.x.Queue(src, dst))
		}
	}
	return buf
}

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// appendWords packs the first n words of data, zeros for a nil one.
// Values stay below the containment bitset's 64, so a byte holds each.
func appendWords(buf []byte, data []uint32, n int) []byte {
	for w := 0; w < n; w++ {
		v := byte(0)
		if data != nil {
			v = byte(data[w])
		}
		buf = append(buf, v)
	}
	return buf
}

// appendMsgs packs a queue of headers, its length first.
func (m *liveModel) appendMsgs(buf []byte, q []proto.Msg) []byte {
	buf = append(buf, byte(len(q)))
	for i := range q {
		h := &q[i]
		buf = append(buf, byte(h.Kind), h.Src, h.Dst, byte(h.Block), h.Word,
			h.Aux, byte(h.Val), byte(h.Val2), flag(h.Data != nil))
		buf = appendWords(buf, h.Data, m.cfg.Words)
	}
	return buf
}
