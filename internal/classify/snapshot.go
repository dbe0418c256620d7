package classify

import "fmt"

// State is a deep snapshot of a classifier's accumulated state: the
// global write histories, the per-processor shadow state, and every
// category counter. It shares no mutable storage with its source.
type State struct {
	history []blockHistory
	shadow  []procShadow
	misses  MissCounts
	updates UpdateCounts
	refs    uint64
	perProc []MissCounts
}

// SnapshotState captures the classifier's accumulated state.
func (c *Classifier) SnapshotState() State {
	st := State{
		history: append([]blockHistory(nil), c.history...),
		shadow:  make([]procShadow, len(c.shadow)),
		misses:  c.misses,
		updates: c.updates,
		refs:    c.refs,
		perProc: append([]MissCounts(nil), c.perProcMisses...),
	}
	for p, sh := range c.shadow {
		st.shadow[p] = procShadow{
			slot:   append([]int32(nil), sh.slot...),
			blocks: append([]procBlock(nil), sh.blocks...),
		}
	}
	return st
}

// RestoreState loads a snapshot into c, replacing all accumulated
// state. The target must have the snapshot source's processor count.
func (c *Classifier) RestoreState(st State) {
	if len(st.shadow) != len(c.shadow) {
		panic(fmt.Sprintf("classify: RestoreState processor count mismatch (%d vs %d)", len(st.shadow), len(c.shadow)))
	}
	c.history = append(c.history[:0], st.history...)
	for p, sh := range st.shadow {
		c.shadow[p].slot = append(c.shadow[p].slot[:0], sh.slot...)
		c.shadow[p].blocks = append(c.shadow[p].blocks[:0], sh.blocks...)
	}
	c.misses = st.misses
	c.updates = st.updates
	c.refs = st.refs
	copy(c.perProcMisses, st.perProc)
}
