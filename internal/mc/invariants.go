package mc

import (
	"fmt"

	"coherencesim/internal/proto"
	"coherencesim/internal/walk"
)

// The invariant suite. The coherence rules on a block's picture are
// proto.System.CheckBlock's, in its two strata: every-state and
// quiescent. The checker adds only what needs the walk's own history
// or the choice network: data-value containment and the count of
// cancelled write-backs still in flight, both every-state, and the
// deadlock verdict on terminal states (no enabled action) that still
// carry unfinished work; walk.Search finds livelock, a cycle along the
// search path.

// check is the model's verdict on a newly reached state, in one
// order: the every-state invariants, then, when s is quiescent, the
// stable-state ones, then, when terminal, the deadlock diagnosis.
func (m *liveModel) check(s *node, terminal bool) (kind walk.Kind, why string, quiescent bool) {
	m.goTo(s)
	// Every block the system knows is one of the configuration's, and a
	// block it does not know breaks no invariant, so these are
	// CheckCoherence's verdicts on the pictures already taken.
	for b := 0; b < m.cfg.Blocks; b++ {
		if errs := m.x.CheckBlock(m.dump(b), false); len(errs) > 0 {
			return walk.Invariant, errs[0].Error(), false
		}
	}
	if why := m.checkValues(); why != "" {
		return walk.Invariant, why, false
	}
	if quiescent = m.quiescent(); quiescent {
		// The every-state rules passed above: what fails here is quiescent.
		for b := 0; b < m.cfg.Blocks; b++ {
			if errs := m.x.CheckBlock(m.dump(b), true); len(errs) > 0 {
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

// checkValues returns a description of the first every-state violation
// that needs the walk's own history or the choice network, or "": a
// value that never legitimately existed, cached, in memory or in
// flight, or a cancelled write-back no longer in flight.
func (m *liveModel) checkValues() string {
	cfg := m.cfg
	for b := 0; b < cfg.Blocks; b++ {
		bd := m.dump(b)
		for p := range bd.Lines {
			ln := &bd.Lines[p]
			if ln.Data == nil {
				continue
			}
			for w := 0; w < cfg.Words; w++ {
				if !m.legal(uint32(b), w, ln.Data[w]) {
					return fmt.Sprintf("block %d word %d: p%d caches value %d that never legitimately existed", b, w, p, ln.Data[w])
				}
			}
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
	// Cancellation accounting: a node lists each write-back until the
	// home consumes it, so every cancelled one it lists must still be in
	// flight, on its channel home or queued at the directory. A consumed
	// write-back left on the list fails here.
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
