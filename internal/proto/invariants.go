package proto

import (
	"fmt"
	"slices"

	"coherencesim/internal/cache"
)

// CheckCoherence validates the protocol's global invariants: CheckBlock
// on the DumpBlock of every block any directory entry or cache knows, in
// ascending block order. It is meant to be called at quiescence (no
// in-flight transactions: engine drained and all write buffers empty);
// some invariants are necessarily violated transiently while messages
// are in flight. It returns every violation found, or nil if the system
// is coherent.
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
	for _, b := range slices.Compact(blocks) {
		errs = append(errs, CheckBlock(s.DumpBlock(b))...)
	}
	return errs
}

// CheckBlock returns every violation of the quiescent invariants in one
// block's picture, in a fixed order, nodes ascending:
//
//  1. At most one node holds the block Exclusive, and then no other node
//     holds it at all.
//  2. A node holding the block Exclusive is the directory's owner.
//  3. The directory entry exists if any node holds the block, and it is
//     neither busy nor queued.
//  4. An owned block is held by its owner alone, Exclusive.
//  5. An uncached block has no sharers and a shared one has some; the
//     sharers are exactly the nodes holding a copy.
//  6. Every copy but an owner's matches memory word for word.
//  7. No node has a write-back of the block pending or cancelled.
func CheckBlock(bd BlockDump) []error {
	var errs []error
	report := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("block %d"+format, append([]any{bd.Block}, args...)...))
	}
	var holders, exclusive []int
	for q, ln := range bd.Lines {
		if ln.State != cache.Invalid {
			holders = append(holders, q)
			if ln.State == cache.Exclusive {
				exclusive = append(exclusive, q)
			}
		}
	}
	d := bd.Dir
	if len(exclusive) > 1 {
		report(": %d exclusive copies (nodes %v)", len(exclusive), exclusive)
	}
	if len(exclusive) == 1 && len(holders) > 1 {
		report(": exclusive at node %d alongside %d other copies", exclusive[0], len(holders)-1)
	}
	if len(exclusive) == 1 && (d == nil || d.State != DirOwned || d.Owner != exclusive[0]) {
		report(": exclusive at node %d but directory %s", exclusive[0], dirString(d))
	}

	if d == nil && len(holders) > 0 {
		report(": cached at %d node(s) with no directory entry", len(holders))
	}
	if d != nil && (d.Busy || d.Queued > 0) {
		report(": directory busy=%v queued=%d at quiescence", d.Busy, d.Queued)
	}
	owner := -1
	switch {
	case d != nil && d.State == DirOwned:
		owner = d.Owner
		switch bd.Lines[owner].State {
		case cache.Invalid:
			report(": owned by node %d which holds no copy", owner)
		case cache.Shared:
			report(": owned by node %d which holds a shared copy", owner)
		}
		for _, q := range holders {
			if q != owner {
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
		for q, ln := range bd.Lines {
			switch held := ln.State != cache.Invalid; {
			case d.Has(q) && !held:
				report(": directory lists node %d as sharer without a copy", q)
			case held && !d.Has(q):
				report(": node %d caches the block but is not a recorded sharer", q)
			}
		}
	}

	for _, q := range holders {
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
	for q, ln := range bd.Lines {
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
