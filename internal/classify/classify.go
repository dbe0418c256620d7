// Package classify implements the communication-categorization algorithms
// the paper uses as its central metric (Section 3.2):
//
//   - cache misses are classified as cold-start, true-sharing,
//     false-sharing, eviction, or drop misses, following Dubois et al.
//     (ISCA'93) as extended by Bianchini & Kontothanassis (Ann. Simulation
//     Symp.'95); exclusive-request (upgrade) transactions are tracked as a
//     sixth communication-causing category;
//
//   - update messages are classified at the end of their lifetime as
//     true-sharing, false-sharing, proliferation, replacement,
//     termination, or drop updates.
//
// The classifier is driven by hooks from the protocol engine: global write
// visibility, per-processor references, copy acquisition/loss, and update
// delivery. Its state is flat and block-indexed — the machine hands out
// blocks densely from 0 — with no map on any hook: a global write history
// per block, and per processor a block -> slot index over a compact array
// of shadow entries, so memory follows the blocks a processor touched.
// Delivered-but-unclassified updates are two 16-bit word masks per entry,
// so a reference to a block with none pending is a load and a compare.
package classify

import (
	"fmt"
	"math/bits"
)

// MissKind is a cache-miss category.
type MissKind int

const (
	MissCold MissKind = iota
	MissTrue
	MissFalse
	MissEviction
	MissDrop
	// MissUpgrade counts exclusive-request transactions: not strictly
	// misses, but communication-causing events reported alongside them.
	MissUpgrade
	NumMissKinds
)

func (k MissKind) String() string {
	switch k {
	case MissCold:
		return "cold"
	case MissTrue:
		return "true"
	case MissFalse:
		return "false"
	case MissEviction:
		return "eviction"
	case MissDrop:
		return "drop"
	case MissUpgrade:
		return "excl-req"
	}
	return fmt.Sprintf("MissKind(%d)", int(k))
}

// UpdateKind is an update-message category.
type UpdateKind int

const (
	UpdTrue UpdateKind = iota
	UpdFalse
	UpdProliferation
	UpdReplacement
	UpdTermination
	UpdDrop
	NumUpdateKinds
)

func (k UpdateKind) String() string {
	switch k {
	case UpdTrue:
		return "useful"
	case UpdFalse:
		return "false"
	case UpdProliferation:
		return "prolif"
	case UpdReplacement:
		return "repl"
	case UpdTermination:
		return "end"
	case UpdDrop:
		return "drop"
	}
	return fmt.Sprintf("UpdateKind(%d)", int(k))
}

// LossReason says why a processor's cached copy went away; it determines
// how the next miss on that block is classified.
type LossReason uint8

const (
	// LossInvalidation: a coherence invalidation (WI write by another proc).
	LossInvalidation LossReason = iota
	// LossEviction: direct-mapped conflict replacement.
	LossEviction
	// LossDrop: CU self-invalidation on reaching the update threshold.
	LossDrop
	// LossFlush: an explicit user-level block flush (the update-conscious
	// MCS lock issues these). The paper's taxonomy has no flush class;
	// a post-flush miss classifies as true/false sharing if another
	// processor wrote in the interim, else as an eviction-like miss.
	LossFlush
)

// MissCounts and UpdateCounts index counters by kind.
type MissCounts [NumMissKinds]uint64

// UpdateCounts indexes update-message counters by kind.
type UpdateCounts [NumUpdateKinds]uint64

// Total sums all categories.
func (m MissCounts) Total() uint64 {
	var s uint64
	for _, v := range m {
		s += v
	}
	return s
}

// TotalMisses sums only true misses (excludes upgrade transactions).
func (m MissCounts) TotalMisses() uint64 { return m.Total() - m[MissUpgrade] }

// Total sums all update categories.
func (u UpdateCounts) Total() uint64 {
	var s uint64
	for _, v := range u {
		s += v
	}
	return s
}

// Useful returns true-sharing updates (the only useful class).
func (u UpdateCounts) Useful() uint64 { return u[UpdTrue] }

// wordsPerBlock is the number of words the shadow state tracks per block;
// it equals cache.WordsPerBlock (pinned by a test — this package does not
// import the cache). The pending-update masks below are sized for it.
const wordsPerBlock = 16

// checkWord panics on a word index outside the block. Every hook that
// takes a word calls it: a mask shift by an out-of-range word would
// otherwise drop the event silently.
func checkWord(word int) {
	if uint(word) >= wordsPerBlock {
		panic(fmt.Sprintf("classify: word %d out of range [0,%d)", word, wordsPerBlock))
	}
}

// blockHistory is the global (cross-processor) write history of a block:
// per word, a version counter and the last writer.
type blockHistory struct {
	ver    [wordsPerBlock]uint64
	writer [wordsPerBlock]int32
}

// procBlock is per-(processor, block) shadow state.
type procBlock struct {
	// lostVer snapshots the global word versions at the moment the copy
	// was lost; a later miss compares against current versions.
	lostVer [wordsPerBlock]uint64
	// pend has bit w set while a delivered update to word w awaits
	// classification; refdOther (a subset of pend) marks those whose
	// receiver has since referenced another word of the block.
	pend, refdOther uint16
	lossReason      LossReason
	everCached      bool
}

// procShadow is one processor's shadow state: a block-indexed slot table
// over a compact array, so memory follows the blocks the processor touched
// rather than the address space (4 bytes per block below the highest one
// touched, a full procBlock only per touched block).
type procShadow struct {
	slot   []int32 // block -> 1-based index into blocks; 0 = untouched
	blocks []procBlock
}

// Classifier accumulates categorized communication for one simulation run.
type Classifier struct {
	// history is indexed by block number: the machine hands out blocks
	// densely from 0, so a grow-on-demand slice stands in for a map.
	history []blockHistory
	shadow  []procShadow // per processor

	misses  MissCounts
	updates UpdateCounts
	// refs counts shared-data references; the paper computes the miss
	// rate solely with respect to shared references (Section 3.2).
	refs uint64
}

// New creates a classifier for the given processor count.
func New(procs int) *Classifier {
	if procs <= 0 {
		panic("classify: procs must be positive")
	}
	return &Classifier{shadow: make([]procShadow, procs)}
}

// Reset clears all accumulated classification state for machine reuse.
// It truncates the tables, keeping capacity: extend and pb zero what they
// regrow into, so a reset costs nothing per block an earlier run touched.
func (c *Classifier) Reset() {
	c.history = c.history[:0]
	for p, sh := range c.shadow {
		c.shadow[p] = procShadow{slot: sh.slot[:0], blocks: sh.blocks[:0]}
	}
	c.misses = MissCounts{}
	c.updates = UpdateCounts{}
	c.refs = 0
}

// extend returns s lengthened with zero values to hold index i, one at a
// time: that never allocates within capacity (a made slice does under -race).
func extend[T any](s []T, i int) []T {
	var zero T
	for len(s) <= i {
		s = append(s, zero)
	}
	return s
}

// hist returns block's write history. The pointer is valid until the
// next hist call.
func (c *Classifier) hist(block uint32) *blockHistory {
	c.history = extend(c.history, int(block))
	return &c.history[block]
}

// pb returns p's shadow state for block, assigning a slot on first touch.
// The pointer is valid until the next pb call for p.
func (c *Classifier) pb(p int, block uint32) *procBlock {
	sh := &c.shadow[p]
	if int(block) < len(sh.slot) {
		if i := sh.slot[block]; i != 0 {
			return &sh.blocks[i-1]
		}
	}
	sh.slot = extend(sh.slot, int(block))
	sh.blocks = append(sh.blocks, procBlock{})
	sh.slot[block] = int32(len(sh.blocks))
	return &sh.blocks[len(sh.blocks)-1]
}

// GlobalWrite records that processor p's store to (block, word) became
// globally visible (WI: the write to the owned line; PU/CU: the home
// applying the write-through).
//
// Ordering contract: when a write causes invalidations (WI), the protocol
// must report LostCopy for each invalidated sharer *before* GlobalWrite,
// so that the causing write counts as "written since the copy was lost"
// and the sharers' re-miss classifies as true/false sharing.
func (c *Classifier) GlobalWrite(p int, block uint32, word int) {
	checkWord(word)
	h := c.hist(block)
	h.ver[word]++
	h.writer[word] = int32(p)
}

// Reference records that processor p touched (block, word) — load or
// store. It resolves pending updates: a pending update on the same word
// becomes a true-sharing (useful) update; pending updates on other words
// of the block learn that active false sharing is occurring.
func (c *Classifier) Reference(p int, block uint32, word int) {
	checkWord(word)
	c.refs++
	s := c.pb(p, block)
	if s.pend == 0 {
		return
	}
	if bit := uint16(1) << uint(word); s.pend&bit != 0 {
		c.updates[UpdTrue]++
		s.pend &^= bit
		s.refdOther &^= bit
	}
	s.refdOther |= s.pend
}

// Installed records that p acquired a cached copy of block.
func (c *Classifier) Installed(p int, block uint32) {
	c.pb(p, block).everCached = true
}

// LostCopy records that p's copy of block went away for the given reason.
// Pending updates are resolved here: as replacement updates on eviction,
// otherwise as useless (LostCopy with LossDrop follows DropDelivered and
// flushes the remaining other-word pendings).
func (c *Classifier) LostCopy(p int, block uint32, reason LossReason) {
	s := c.pb(p, block)
	s.lossReason = reason
	s.lostVer = c.hist(block).ver
	if s.pend == 0 {
		return
	}
	if reason == LossEviction {
		c.updates[UpdReplacement] += uint64(bits.OnesCount16(s.pend))
	} else {
		// Invalidation under WI cannot coexist with pending updates;
		// drop/flush strand pendings, which are useless by definition.
		c.resolveUseless(s.pend, s.refdOther)
	}
	s.pend, s.refdOther = 0, 0
}

// resolveUseless classifies lifetime-ended useless updates (the pend bits
// in mask) as false sharing where the receiver was actively referencing
// other words in the block, else as proliferation (the paper's
// convention).
func (c *Classifier) resolveUseless(mask, refdOther uint16) {
	f := bits.OnesCount16(mask & refdOther)
	c.updates[UpdFalse] += uint64(f)
	c.updates[UpdProliferation] += uint64(bits.OnesCount16(mask) - f)
}

// Miss classifies and counts a miss by p on (block, word). Call when the
// access has been determined to miss in the cache.
func (c *Classifier) Miss(p int, block uint32, word int) MissKind {
	checkWord(word)
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
		wroteSince := h.ver[word] > s.lostVer[word]
		byOther := int(h.writer[word]) != p
		if wroteSince && byOther {
			kind = MissTrue
		} else if s.lossReason == LossFlush && !anyOtherWrite(s, h, p) {
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
func anyOtherWrite(s *procBlock, h *blockHistory, p int) bool {
	for w := range h.ver {
		if h.ver[w] > s.lostVer[w] && int(h.writer[w]) != p {
			return true
		}
	}
	return false
}

// Upgrade counts an exclusive-request (ownership upgrade) transaction.
func (c *Classifier) Upgrade() {
	c.misses[MissUpgrade]++
}

// UpdateDelivered records that an update message for (block, word) written
// by writer arrived at p's cached copy. A previous pending update to the
// same word has now been overwritten and is classified useless.
func (c *Classifier) UpdateDelivered(p int, block uint32, word, writer int) {
	checkWord(word)
	s := c.pb(p, block)
	bit := uint16(1) << uint(word)
	c.resolveUseless(s.pend&bit, s.refdOther)
	s.pend |= bit
	s.refdOther &^= bit
}

// DropDelivered records an update that, on arrival at p, pushed the CU
// counter past its threshold and invalidated the copy: the triggering
// update is a drop update; the caller must follow with
// LostCopy(p, block, LossDrop).
func (c *Classifier) DropDelivered(p int, block uint32, word int) {
	checkWord(word)
	s := c.pb(p, block)
	bit := uint16(1) << uint(word)
	c.resolveUseless(s.pend&bit, s.refdOther)
	s.pend &^= bit
	s.refdOther &^= bit
	c.updates[UpdDrop]++
}

// StrayUpdate counts an update message that arrived at a node which no
// longer caches the block (its drop notice or replacement hint was still
// in flight). Such messages are useless by definition and are counted as
// proliferation updates.
func (c *Classifier) StrayUpdate() { c.updates[UpdProliferation]++ }

// Finish classifies all still-pending updates as termination updates.
// Call exactly once, at end of simulation.
func (c *Classifier) Finish() {
	for p := range c.shadow {
		blocks := c.shadow[p].blocks
		for i := range blocks {
			c.updates[UpdTermination] += uint64(bits.OnesCount16(blocks[i].pend))
			blocks[i].pend, blocks[i].refdOther = 0, 0
		}
	}
}

// Misses returns the accumulated miss counts.
func (c *Classifier) Misses() MissCounts { return c.misses }

// References returns the total shared-data references recorded.
func (c *Classifier) References() uint64 { return c.refs }

// MissRate returns misses per shared reference (the paper's metric).
// Zero references yields zero.
func (c *Classifier) MissRate() float64 {
	if c.refs == 0 {
		return 0
	}
	return float64(c.misses.TotalMisses()) / float64(c.refs)
}

// Updates returns the accumulated update-message counts.
func (c *Classifier) Updates() UpdateCounts { return c.updates }
