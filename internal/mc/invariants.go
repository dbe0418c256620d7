package mc

import (
	"fmt"

	"coherencesim/internal/cache"
	"coherencesim/internal/proto"
)

// The invariant suite, stratified by when each property must hold:
//
//   - every-state invariants hold on every reachable state, including
//     mid-transaction (single-writer, dirty-implies-exclusive,
//     protocol-specific line discipline, data-value containment,
//     directory structural sanity);
//   - quiescent invariants hold whenever no message is in flight and no
//     operation is pending: proto.CheckBlock, the check behind
//     proto.CheckCoherence, on each block's picture (copies match
//     memory, sharer sets are exact, no transient residue); and
//   - deadlock is diagnosed on terminal states (no enabled action) that
//     still carry unfinished work, livelock on cycles reachable along
//     the search path (walk.go).

// check is the model's verdict on a newly reached state, in one order:
// the every-state invariants, then, when st is quiescent, the
// stable-state ones, then, when terminal, the deadlock diagnosis.
func (m protoModel) check(st *state, terminal bool) (kind ViolationKind, why string, quiescent bool) {
	if why := checkEvery(m.cfg, st); why != "" {
		return VInvariant, why, false
	}
	if quiescent = st.quiescent(m.cfg); quiescent {
		if why := checkQuiescent(m.cfg, st); why != "" {
			return VQuiescent, why, true
		}
	}
	if terminal {
		if why := checkDeadlock(m.cfg, st); why != "" {
			return VDeadlock, why, quiescent
		}
	}
	return "", "", quiescent
}

// checkEvery returns a description of the first every-state invariant
// violation in st, or "".
func checkEvery(cfg Config, st *state) string {
	for b := 0; b < cfg.Blocks; b++ {
		d := &st.dirs[b]
		var holders, exclusives []int
		for p := 0; p < cfg.Procs; p++ {
			ln := &st.lines[p][b]
			switch ln.state {
			case cache.Invalid:
				continue
			case cache.Exclusive:
				exclusives = append(exclusives, p)
			}
			holders = append(holders, p)
			if ln.dirty && ln.state != cache.Exclusive {
				return fmt.Sprintf("block %d: dirty non-exclusive copy at p%d", b, p)
			}
			switch cfg.Protocol {
			case proto.CU:
				if ln.ctr >= cfg.CUThreshold {
					return fmt.Sprintf("block %d: p%d counter %d at/above threshold %d", b, p, ln.ctr, cfg.CUThreshold)
				}
			default:
				if ln.ctr != 0 {
					return fmt.Sprintf("block %d: nonzero update counter at p%d under %v", b, p, cfg.Protocol)
				}
			}
			for w := 0; w < cfg.Words; w++ {
				if !st.valueLegal(uint8(b), uint8(w), ln.data[w]) {
					return fmt.Sprintf("block %d word %d: p%d caches value %d that never legitimately existed", b, w, p, ln.data[w])
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
			if d.State != proto.DirOwned || int(d.Owner) != e {
				return fmt.Sprintf("block %d: exclusive copy at p%d but directory does not record p%d as owner", b, e, e)
			}
		}
		if cfg.Protocol == proto.CU {
			if d.State == proto.DirOwned {
				return fmt.Sprintf("block %d: directory owned under CU", b)
			}
			for p := 0; p < cfg.Procs; p++ {
				if st.lines[p][b].dirty {
					return fmt.Sprintf("block %d: dirty copy at p%d under CU (write-through)", b, p)
				}
			}
		}
		// Directory structural sanity.
		if int(d.Owner) >= cfg.Procs {
			return fmt.Sprintf("block %d: directory owner p%d out of range", b, d.Owner)
		}
		if d.Sharers>>uint(cfg.Procs) != 0 {
			return fmt.Sprintf("block %d: sharer bitmap %#x names nonexistent nodes", b, d.Sharers)
		}
		if d.State == proto.DirOwned && d.Sharers != 0 {
			return fmt.Sprintf("block %d: owned directory entry with sharer bitmap %#x", b, d.Sharers)
		}
		if !d.busy && (len(d.waitq) > 0 || d.pend.kind != pendNone) {
			return fmt.Sprintf("block %d: idle directory entry with queued/pending transactions", b)
		}
		for w := 0; w < cfg.Words; w++ {
			if !st.valueLegal(uint8(b), uint8(w), st.mem[b][w]) {
				return fmt.Sprintf("block %d word %d: memory holds value %d that never legitimately existed", b, w, st.mem[b][w])
			}
		}
	}
	// In-flight payloads must also be contained: a corrupted value is a
	// bug the instant it exists, not only once it lands in a cache.
	for s := 0; s < cfg.Procs; s++ {
		for dd := 0; dd < cfg.Procs; dd++ {
			for i := range st.chans[s][dd] {
				if why := checkMsgValues(cfg, st, &st.chans[s][dd][i]); why != "" {
					return why
				}
			}
		}
	}
	// Cancellation accounting: every cancelled write-back must have a
	// matching message still in flight to absorb the cancellation.
	for p := 0; p < cfg.Procs; p++ {
		for b := 0; b < cfg.Blocks; b++ {
			if c := st.procs[p].cancelled[b]; c > 0 {
				n := 0
				for _, m := range st.chans[p][cfg.homeOf(uint8(b))] {
					if m.kind == mWB && m.block == uint8(b) {
						n++
					}
				}
				// A cancelled write-back may also be parked behind a busy
				// directory entry rather than in a channel.
				for _, m := range st.dirs[b].waitq {
					if m.kind == mWB && m.src == uint8(p) {
						n++
					}
				}
				if int(c) > n {
					return fmt.Sprintf("p%d block %d: %d cancelled write-backs but only %d in flight", p, b, c, n)
				}
			}
		}
	}
	return ""
}

// checkMsgValues checks data-value containment for one in-flight message.
func checkMsgValues(cfg Config, st *state, m *msg) string {
	if m.hasData {
		for w := 0; w < cfg.Words; w++ {
			if !st.valueLegal(m.block, uint8(w), m.data[w]) {
				return fmt.Sprintf("in-flight %v carries value %d for block %d word %d that never legitimately existed", m.kind, m.data[w], m.block, w)
			}
		}
	}
	switch m.kind {
	case mWTReq, mUpd, mWTReply:
		if !st.valueLegal(m.block, m.word, m.val) {
			return fmt.Sprintf("in-flight %v carries value %d for block %d word %d that never legitimately existed", m.kind, m.val, m.block, m.word)
		}
	case mAtomReply:
		if !st.valueLegal(m.block, m.word, m.val2) {
			return fmt.Sprintf("in-flight atomic reply carries result %d for block %d word %d that never legitimately existed", m.val2, m.block, m.word)
		}
	}
	return ""
}

// checkQuiescent returns the first quiescent-state invariant
// violation, or "": proto.CheckBlock, the check proto.CheckCoherence
// runs on a live system, on each block's picture. Call only when
// st.quiescent(cfg).
func checkQuiescent(cfg Config, st *state) string {
	for b := 0; b < cfg.Blocks; b++ {
		if errs := proto.CheckBlock(st.dump(cfg, b)); len(errs) > 0 {
			return errs[0].Error()
		}
	}
	return ""
}

// dump pictures block b of st as proto.DumpBlock pictures a live
// system's: words widen to a whole block, and a node without a copy
// shows no data.
func (st *state) dump(cfg Config, b int) proto.BlockDump {
	d := &st.dirs[b]
	dd := proto.DirDump{DirRecord: d.DirRecord, Busy: d.busy, Queued: len(d.waitq)}
	bd := proto.BlockDump{Block: uint32(b), Dir: &dd, Memory: widen(st.mem[b]), Lines: make([]proto.LineDump, cfg.Procs)}
	for p := range bd.Lines {
		ld, ln, pr := &bd.Lines[p], &st.lines[p][b], &st.procs[p]
		if ln.state != cache.Invalid {
			ld.State, ld.Dirty, ld.Counter, ld.Data = ln.state, ln.dirty, ln.ctr, widen(ln.data)
		}
		ld.PendingWB, ld.CancelledWB = pr.pwbValid[b], int(pr.cancelled[b])
	}
	return bd
}

// widen returns a block's words as proto stores them.
func widen(words [MaxWords]uint8) []uint32 {
	out := make([]uint32, cache.WordsPerBlock)
	for w, v := range words {
		out[w] = uint32(v)
	}
	return out
}

// checkDeadlock diagnoses a terminal state (no enabled action) that
// still carries unfinished work. With every issue budget spent and no
// message deliverable, all transactions must have fully completed. Only
// an operation in flight needs checking here: a terminal state with none
// is quiescent, and the quiescent check has already refused a busy or
// queued directory entry and any write-back residue.
func checkDeadlock(cfg Config, st *state) string {
	for p := 0; p < cfg.Procs; p++ {
		if st.procs[p].op.active {
			return fmt.Sprintf("deadlock: p%d's %v never completes", p, st.procs[p].op.kind)
		}
	}
	return ""
}
