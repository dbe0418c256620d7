package classify

// This file is the map-based classifier that internal/classify shipped
// before the shadow state was flattened, kept unchanged apart from the
// ref- prefix on its type names and the loss of its snapshot methods,
// which went when the flat classifier's did. It is the oracle of
// TestClassifierMatchesReference and FuzzClassifierAgainstReference: the
// flat form must compute the same counts on every hook stream.

// refPendingUpdate tracks one delivered-but-unclassified update message.
// It is stored by value in refProcBlock.pending, so the per-update
// bookkeeping on the delivery hot path does not allocate.
type refPendingUpdate struct {
	refdOther bool // receiver referenced another word in the block
}

// refWordVersion tracks global write history of one word.
type refWordVersion struct {
	ver    uint64
	writer int
}

// refBlockHistory is the global (cross-processor) write history of a block.
type refBlockHistory struct {
	words [16]refWordVersion
}

// refProcBlock is per-(processor, block) shadow state.
type refProcBlock struct {
	everCached bool
	cached     bool
	lossReason LossReason
	// lostVer snapshots the global word versions at the moment the copy
	// was lost; a later miss compares against current versions.
	lostVer [16]uint64
	// pending maps word -> unclassified delivered update.
	pending map[int]refPendingUpdate
}

// refClassifier accumulates categorized communication for one simulation run.
type refClassifier struct {
	procs   int
	history map[uint32]*refBlockHistory
	state   []map[uint32]*refProcBlock // per processor

	misses  MissCounts
	updates UpdateCounts
	// refs counts shared-data references; the paper computes the miss
	// rate solely with respect to shared references (Section 3.2).
	refs uint64
}

// New creates a classifier for the given processor count.
func newRefClassifier(procs int) *refClassifier {
	if procs <= 0 {
		panic("classify: procs must be positive")
	}
	st := make([]map[uint32]*refProcBlock, procs)
	for i := range st {
		st[i] = make(map[uint32]*refProcBlock)
	}
	return &refClassifier{
		procs:   procs,
		history: make(map[uint32]*refBlockHistory),
		state:   st,
	}
}

// Reset clears all accumulated classification state for machine reuse.
// Shadow-state map entries are kept and zeroed in place (the next run's
// working set is typically identical), which is order-safe: each entry's
// reset is independent of every other, so map iteration order cannot
// influence the result.
func (c *refClassifier) Reset() {
	for _, h := range c.history {
		h.words = [16]refWordVersion{}
	}
	for p := range c.state {
		for _, s := range c.state[p] {
			s.everCached = false
			s.cached = false
			s.lossReason = 0
			s.lostVer = [16]uint64{}
			clear(s.pending)
		}
	}
	c.misses = MissCounts{}
	c.updates = UpdateCounts{}
	c.refs = 0
}

func (c *refClassifier) hist(block uint32) *refBlockHistory {
	h, ok := c.history[block]
	if !ok {
		h = &refBlockHistory{}
		c.history[block] = h
	}
	return h
}

func (c *refClassifier) pb(p int, block uint32) *refProcBlock {
	s, ok := c.state[p][block]
	if !ok {
		s = &refProcBlock{pending: make(map[int]refPendingUpdate)}
		c.state[p][block] = s
	}
	return s
}

// GlobalWrite records that processor p's store to (block, word) became
// globally visible (WI: the write to the owned line; PU/CU: the home
// applying the write-through).
//
// Ordering contract: when a write causes invalidations (WI), the protocol
// must report LostCopy for each invalidated sharer *before* GlobalWrite,
// so that the causing write counts as "written since the copy was lost"
// and the sharers' re-miss classifies as true/false sharing.
func (c *refClassifier) GlobalWrite(p int, block uint32, word int) {
	w := &c.hist(block).words[word]
	w.ver++
	w.writer = p
}

// Reference records that processor p touched (block, word) — load or
// store. It resolves pending updates: a pending update on the same word
// becomes a true-sharing (useful) update; pending updates on other words
// of the block learn that active false sharing is occurring.
func (c *refClassifier) Reference(p int, block uint32, word int) {
	c.refs++
	s := c.pb(p, block)
	for w, pu := range s.pending {
		if w == word {
			c.updates[UpdTrue]++
			delete(s.pending, w)
		} else if !pu.refdOther {
			s.pending[w] = refPendingUpdate{refdOther: true}
		}
	}
}

// Installed records that p acquired a cached copy of block.
func (c *refClassifier) Installed(p int, block uint32) {
	s := c.pb(p, block)
	s.everCached = true
	s.cached = true
}

// LostCopy records that p's copy of block went away for the given reason.
// Pending updates are resolved here for replacement (and, for LossDrop,
// by DropDelivered below — LostCopy with LossDrop flushes any remaining
// other-word pendings as proliferation).
func (c *refClassifier) LostCopy(p int, block uint32, reason LossReason) {
	s := c.pb(p, block)
	s.cached = false
	s.lossReason = reason
	h := c.hist(block)
	for w := range s.lostVer {
		s.lostVer[w] = h.words[w].ver
	}
	for w := range s.pending {
		switch reason {
		case LossEviction:
			c.updates[UpdReplacement]++
		default:
			// Invalidation under WI cannot coexist with pending updates;
			// drop/flush strand pendings, which are useless by definition.
			c.resolveUseless(s.pending[w])
		}
		delete(s.pending, w)
	}
}

// resolveUseless classifies a lifetime-ended useless update as false
// sharing if the receiver was actively referencing other words in the
// block, else as proliferation (the paper's convention).
func (c *refClassifier) resolveUseless(pu refPendingUpdate) {
	if pu.refdOther {
		c.updates[UpdFalse]++
	} else {
		c.updates[UpdProliferation]++
	}
}

// Miss classifies and counts a miss by p on (block, word). Call when the
// access has been determined to miss in the cache.
func (c *refClassifier) Miss(p int, block uint32, word int) MissKind {
	s := c.pb(p, block)
	var kind MissKind
	switch {
	case !s.everCached:
		kind = MissCold
	case s.lossReason == LossEviction:
		kind = MissEviction
	case s.lossReason == LossDrop:
		kind = MissDrop
	default: // invalidation or flush: sharing-based classification
		h := c.hist(block)
		wv := h.words[word]
		wroteSince := wv.ver > s.lostVer[word]
		byOther := wv.writer != p
		if wroteSince && byOther {
			kind = MissTrue
		} else if s.lossReason == LossFlush && !c.anyOtherWrite(s, h, p) {
			// Nothing changed since our own flush: self-induced, count as
			// eviction-like rather than inventing sharing that isn't there.
			kind = MissEviction
		} else {
			kind = MissFalse
		}
	}
	c.misses[kind]++
	return kind
}

// anyOtherWrite reports whether any word of the block was written by a
// processor other than p since s lost its copy.
func (c *refClassifier) anyOtherWrite(s *refProcBlock, h *refBlockHistory, p int) bool {
	for w := range h.words {
		if h.words[w].ver > s.lostVer[w] && h.words[w].writer != p {
			return true
		}
	}
	return false
}

// Upgrade counts an exclusive-request (ownership upgrade) transaction.
func (c *refClassifier) Upgrade() {
	c.misses[MissUpgrade]++
}

// UpdateDelivered records that an update message for (block, word) written
// by writer arrived at p's cached copy. A previous pending update to the
// same word has now been overwritten and is classified useless.
func (c *refClassifier) UpdateDelivered(p int, block uint32, word, writer int) {
	s := c.pb(p, block)
	if old, ok := s.pending[word]; ok {
		c.resolveUseless(old)
	}
	s.pending[word] = refPendingUpdate{}
}

// DropDelivered records an update that, on arrival at p, pushed the CU
// counter past its threshold and invalidated the copy: the triggering
// update is a drop update; the caller must follow with
// LostCopy(p, block, LossDrop).
func (c *refClassifier) DropDelivered(p int, block uint32, word int) {
	s := c.pb(p, block)
	if old, ok := s.pending[word]; ok {
		c.resolveUseless(old)
		delete(s.pending, word)
	}
	c.updates[UpdDrop]++
}

// StrayUpdate counts an update message that arrived at a node which no
// longer caches the block (its drop notice or replacement hint was still
// in flight). Such messages are useless by definition and are counted as
// proliferation updates.
func (c *refClassifier) StrayUpdate() { c.updates[UpdProliferation]++ }

// Finish classifies all still-pending updates as termination updates.
// Call exactly once, at end of simulation.
func (c *refClassifier) Finish() {
	for p := range c.state {
		for _, s := range c.state[p] {
			for w := range s.pending {
				c.updates[UpdTermination]++
				delete(s.pending, w)
			}
		}
	}
}
