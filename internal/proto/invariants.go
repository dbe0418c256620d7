package proto

import (
	"fmt"
	"math/bits"
	"slices"

	"coherencesim/internal/cache"
)

// CheckCoherence validates the protocol's global invariants: CheckBlock,
// both strata, on the DumpBlock of every block any directory entry or
// cache knows, in ascending block order. It is meant to be called at
// quiescence (engine drained and all write buffers empty). It returns
// every violation found, or nil if the system is coherent.
//
// The checker is O(blocks x nodes) and intended for tests and debugging,
// not for per-event use.
func (s *System) CheckCoherence() []error {
	var blocks []uint32
	for b, d := range s.dir {
		if d != nil {
			blocks = append(blocks, uint32(b))
		}
	}
	for _, c := range s.caches {
		c.ForEachValid(func(ln *cache.Line) { blocks = append(blocks, ln.Block) })
	}
	slices.Sort(blocks)
	var errs []error
	var bd BlockDump
	for _, b := range slices.Compact(blocks) {
		s.DumpBlock(b, &bd)
		errs = append(errs, s.CheckBlock(&bd, true)...)
	}
	return errs
}

// CheckBlock is the one statement of the coherence rules. It returns
// every violation in one block's picture, in a fixed order, nodes
// ascending: of the every-state stratum, which holds mid-transaction
// too, and when quiescent (no message in flight, no operation pending)
// of the quiescent stratum as well. Every state:
//
//  1. At most one copy is Exclusive, and then it is the only copy.
//  2. An Exclusive holder is the directory's owner.
//  3. Only an Exclusive copy is dirty.
//  4. Under CU, counters stay below the threshold, no copy is Exclusive
//     and no entry is owned; under WI and PU, every counter is 0.
//  5. Owner and sharer bits name real nodes; an owned entry has no
//     sharer bits; an idle entry queues nothing.
//
// Quiescent only:
//
//  6. A held block has a directory entry, neither busy nor queued.
//  7. An owned block is held by its owner alone, Exclusive.
//  8. An uncached entry has no sharers and a shared one has some; the
//     sharers are exactly the nodes holding a copy.
//  9. Every copy but an owner's matches memory word for word.
//  10. No node has a write-back of the block pending or cancelled.
func (s *System) CheckBlock(bd *BlockDump, quiescent bool) []error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("block %d"+format, append([]any{bd.Block}, args...)...))
	}
	cu, n, d := s.cfg.Protocol == CU, len(s.caches), bd.Dir
	var holders, excl uint64 // bitmaps over nodes
	for q := range bd.Lines {
		ln := &bd.Lines[q]
		if ln.State == cache.Invalid {
			continue
		}
		holders |= 1 << uint(q)
		if ln.State == cache.Exclusive {
			excl |= 1 << uint(q)
		} else if ln.Dirty {
			report(": dirty non-exclusive copy at node %d", q)
		}
		switch {
		case cu && ln.Counter >= s.cfg.CUThreshold:
			report(": node %d counter %d at or above the CU threshold %d", q, ln.Counter, s.cfg.CUThreshold)
		case !cu && ln.Counter != 0:
			report(": node %d has update counter %d under %v", q, ln.Counter, s.cfg.Protocol)
		}
	}
	e, nx := bits.TrailingZeros64(excl), bits.OnesCount64(excl) // e: the lowest Exclusive holder
	if nx > 1 {
		report(": %d exclusive copies (nodes %b)", nx, excl)
	}
	if nx == 1 && holders != excl {
		report(": exclusive at node %d alongside %d other copies", e, bits.OnesCount64(holders)-1)
	}
	if nx == 1 && (d == nil || d.State != DirOwned || d.Owner != e) {
		report(": exclusive at node %d but directory %s", e, dirString(d))
	}
	if cu && nx > 0 {
		report(": exclusive at node %d under CU, which never retains", e)
	}
	if d != nil {
		if cu && d.State == DirOwned {
			report(": directory owned under CU")
		}
		if d.Owner < 0 || d.Owner >= n {
			report(": directory owner %d names no node", d.Owner)
		}
		if d.Sharers>>uint(n) != 0 {
			report(": sharer bits %#x name nodes beyond %d", d.Sharers, n-1)
		}
		if d.State == DirOwned && d.Sharers != 0 {
			report(": owned directory entry with sharer bits %#x", d.Sharers)
		}
		if !d.Busy && d.Queued > 0 {
			report(": idle directory entry queues %d", d.Queued)
		}
	}
	if !quiescent {
		return errs
	}

	if d == nil && holders != 0 {
		report(": cached at %d node(s) with no directory entry", bits.OnesCount64(holders))
	}
	if d != nil && (d.Busy || d.Queued > 0) {
		report(": directory busy=%v queued=%d at quiescence", d.Busy, d.Queued)
	}
	owner := -1
	switch {
	case d != nil && d.State == DirOwned:
		owner = d.Owner
		if o := uint64(1) << uint(owner); holders&o == 0 {
			report(": owned by node %d which holds no copy", owner)
		} else if excl&o == 0 {
			report(": owned by node %d which holds a shared copy", owner)
		}
		for q := range bd.Lines {
			if q != owner && holders&(1<<uint(q)) != 0 {
				report(": owned by %d but node %d also caches it", owner, q)
			}
		}
	case d != nil:
		if d.State == DirUncached && d.Sharers != 0 {
			report(": uncached directory entry with sharers %#x", d.Sharers)
		}
		if d.State == DirShared && d.Sharers == 0 {
			report(": shared directory entry with no sharers")
		}
		for q := range bd.Lines {
			switch held := holders&(1<<uint(q)) != 0; {
			case d.Has(q) && !held:
				report(": directory lists node %d as sharer without a copy", q)
			case held && !d.Has(q):
				report(": node %d caches the block but is not a recorded sharer", q)
			}
		}
	}

	for q := range bd.Lines {
		if q == owner {
			continue // the owner may legitimately diverge from memory
		}
		for w, v := range bd.Lines[q].Data {
			if v != bd.Memory[w] {
				report(" word %d: node %d has %d, memory has %d", w, q, v, bd.Memory[w])
				break
			}
		}
	}
	for q := range bd.Lines {
		ln := &bd.Lines[q]
		if ln.PendingWB {
			report(": node %d has a pending write-back at quiescence", q)
		}
		if ln.CancelledWB > 0 {
			report(": node %d has %d dangling write-back cancellation(s)", q, ln.CancelledWB)
		}
	}
	return errs
}

func dirString(d *DirDump) string {
	switch {
	case d == nil:
		return "absent"
	case d.State == DirShared:
		return fmt.Sprintf("shared(%b)", d.Sharers)
	case d.State == DirOwned:
		return fmt.Sprintf("owned(%d)", d.Owner)
	}
	return d.State.String()
}
