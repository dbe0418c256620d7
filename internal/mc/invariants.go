package mc

import (
	"fmt"

	"coherencesim/internal/cache"
	"coherencesim/internal/proto"
	"coherencesim/internal/walk"
)

// The invariant suite, stratified by when each property must hold:
//
//   - every-state invariants hold on every reachable state, including
//     mid-transaction (single-writer, dirty-implies-exclusive,
//     protocol-specific line discipline, data-value containment,
//     directory structural sanity);
//   - quiescent invariants hold whenever no message is in flight and no
//     operation is pending: proto.CheckBlock on each block's picture
//     (copies match memory, sharer sets are exact, no transient
//     residue); and
//   - deadlock is diagnosed on terminal states (no enabled action) that
//     still carry unfinished work, livelock on cycles reachable along
//     the search path (walk.Search).

// check is the model's verdict on a newly reached state, in one
// order: the every-state invariants, then, when s is quiescent, the
// stable-state ones, then, when terminal, the deadlock diagnosis.
func (m *liveModel) check(s *node, terminal bool) (kind walk.Kind, why string, quiescent bool) {
	m.goTo(s)
	if why := m.checkEvery(); why != "" {
		return walk.Invariant, why, false
	}
	if quiescent = m.quiescent(); quiescent {
		// Every block the system knows is one of the configuration's,
		// and a block it does not know breaks no quiescent invariant, so
		// this is CheckCoherence's verdict on the pictures already taken.
		for b := 0; b < m.cfg.Blocks; b++ {
			if errs := proto.CheckBlock(*m.dump(b)); len(errs) > 0 {
				return walk.Quiescent, errs[0].Error(), true
			}
		}
	}
	if terminal {
		// With every issue budget spent and no message deliverable, all
		// transactions must have completed. A terminal state with no
		// operation in flight is quiescent, and the quiescent check has
		// already refused any residue.
		for p := 0; p < m.cfg.Procs; p++ {
			if pr := &m.procs[p]; pr.active {
				return walk.Deadlock, fmt.Sprintf("deadlock: p%d's %v never completes", p, pr.kind), quiescent
			}
		}
	}
	return "", "", quiescent
}

// checkEvery returns a description of the first every-state invariant
// violation, or "".
func (m *liveModel) checkEvery() string {
	cfg := m.cfg
	for b := 0; b < cfg.Blocks; b++ {
		bd := m.dump(b)
		d := dirOf(bd)
		var holders, exclusives []int
		for p := range bd.Lines {
			ln := &bd.Lines[p]
			switch ln.State {
			case cache.Invalid:
				continue
			case cache.Exclusive:
				exclusives = append(exclusives, p)
			}
			holders = append(holders, p)
			if ln.Dirty && ln.State != cache.Exclusive {
				return fmt.Sprintf("block %d: dirty non-exclusive copy at p%d", b, p)
			}
			switch cfg.Protocol {
			case proto.CU:
				if ln.Counter >= cfg.CUThreshold {
					return fmt.Sprintf("block %d: p%d counter %d at/above threshold %d", b, p, ln.Counter, cfg.CUThreshold)
				}
			default:
				if ln.Counter != 0 {
					return fmt.Sprintf("block %d: nonzero update counter at p%d under %v", b, p, cfg.Protocol)
				}
			}
			for w := 0; w < cfg.Words; w++ {
				if !m.legal(uint32(b), w, ln.Data[w]) {
					return fmt.Sprintf("block %d word %d: p%d caches value %d that never legitimately existed", b, w, p, ln.Data[w])
				}
			}
		}
		if len(exclusives) > 1 {
			return fmt.Sprintf("block %d: %d exclusive copies (single-writer violated)", b, len(exclusives))
		}
		if len(exclusives) == 1 {
			e := exclusives[0]
			if len(holders) > 1 {
				return fmt.Sprintf("block %d: exclusive copy at p%d alongside %d other copies", b, e, len(holders)-1)
			}
			if cfg.Protocol == proto.CU {
				return fmt.Sprintf("block %d: exclusive copy at p%d under CU (never retains)", b, e)
			}
			if d.State != proto.DirOwned || d.Owner != e {
				return fmt.Sprintf("block %d: exclusive copy at p%d but directory does not record p%d as owner", b, e, e)
			}
		}
		if cfg.Protocol == proto.CU && d.State == proto.DirOwned {
			return fmt.Sprintf("block %d: directory owned under CU", b)
		}
		// Directory structural sanity.
		if d.Owner >= cfg.Procs {
			return fmt.Sprintf("block %d: directory owner p%d out of range", b, d.Owner)
		}
		if d.Sharers>>uint(cfg.Procs) != 0 {
			return fmt.Sprintf("block %d: sharer bitmap %#x names nonexistent nodes", b, d.Sharers)
		}
		if d.State == proto.DirOwned && d.Sharers != 0 {
			return fmt.Sprintf("block %d: owned directory entry with sharer bitmap %#x", b, d.Sharers)
		}
		if !d.Busy && d.Queued > 0 {
			return fmt.Sprintf("block %d: idle directory entry with queued transactions", b)
		}
		for w := 0; w < cfg.Words; w++ {
			if !m.legal(uint32(b), w, bd.Memory[w]) {
				return fmt.Sprintf("block %d word %d: memory holds value %d that never legitimately existed", b, w, bd.Memory[w])
			}
		}
	}
	for src := 0; src < cfg.Procs; src++ {
		for dst := 0; dst < cfg.Procs; dst++ {
			for _, h := range m.x.Queue(src, dst) {
				if why := m.checkMsg(&h); why != "" {
					return why
				}
			}
		}
	}
	// Cancellation accounting: every cancelled write-back must still be
	// in flight, on its channel home or queued at the directory, to
	// absorb its cancellation.
	for b := 0; b < cfg.Blocks; b++ {
		home := m.x.HomeOf(uint32(b))
		for p, ln := range m.dump(b).Lines {
			if ln.CancelledWB == 0 {
				continue
			}
			n := 0
			for _, q := range [][]proto.Msg{m.x.Queue(p, home), m.x.Waiting(uint32(b))} {
				for _, h := range q {
					if h.Kind == proto.MsgWB && int(h.Src) == p && h.Block == uint32(b) {
						n++
					}
				}
			}
			if ln.CancelledWB > n {
				return fmt.Sprintf("p%d block %d: %d cancelled write-backs but only %d in flight", p, b, ln.CancelledWB, n)
			}
		}
	}
	return ""
}

// checkMsg checks data-value containment for one in-flight message: a
// corrupted value is a bug the instant it exists, not only once it
// lands in a cache.
func (m *liveModel) checkMsg(h *proto.Msg) string {
	if h.Data != nil {
		for w := 0; w < m.cfg.Words; w++ {
			if !m.legal(h.Block, w, h.Data[w]) {
				return fmt.Sprintf("in-flight %v carries value %d for block %d word %d that never legitimately existed", h.Kind, h.Data[w], h.Block, w)
			}
		}
	}
	v := h.Val
	switch h.Kind {
	case proto.MsgWTReq, proto.MsgUpd, proto.MsgWTReply:
	case proto.MsgAtomReply:
		v = h.Val2
	default:
		return ""
	}
	if !m.legal(h.Block, int(h.Word), v) {
		return fmt.Sprintf("in-flight %v carries value %d for block %d word %d that never legitimately existed", h.Kind, v, h.Block, h.Word)
	}
	return ""
}
