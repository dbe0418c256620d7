package proto

import "coherencesim/internal/cache"

// This file holds the directory policy and the block picture the
// protocols are checked on. DirRecord is one block's directory record
// with its five transitions, so each directory decision is written
// once. BlockDump is the global picture of one block — directory,
// memory and every node's copy and write-back bookkeeping — which
// DumpBlock takes of a live system; CheckBlock (invariants.go) judges
// it, and the model checker (internal/mc) encodes it. Nothing here
// simulates; call DumpBlock only from outside engine context or at
// quiescence.

// DirState is the home directory state of one block.
type DirState int

const (
	// DirUncached: no registered copies.
	DirUncached DirState = iota
	// DirShared: one or more clean copies.
	DirShared
	// DirOwned: WI dirty-exclusive or PU retained-private.
	DirOwned
)

func (d DirState) String() string {
	switch d {
	case DirUncached:
		return "uncached"
	case DirShared:
		return "shared"
	case DirOwned:
		return "owned"
	}
	return "?"
}

// DirRecord is the full-map directory record of one block. Owner is
// meaningful only when State is DirOwned; the transitions leave a stale
// one behind otherwise.
type DirRecord struct {
	State   DirState
	Owner   int
	Sharers uint64 // bitmap over nodes
}

// Has reports whether node p is a recorded sharer.
func (r *DirRecord) Has(p int) bool { return r.Sharers&(1<<uint(p)) != 0 }

// Share records p as a sharer of an uncached or shared block.
func (r *DirRecord) Share(p int) {
	r.Sharers |= 1 << uint(p)
	if r.State == DirUncached {
		r.State = DirShared
	}
}

// Grant makes p the block's only holder, as its owner.
func (r *DirRecord) Grant(p int) {
	r.State, r.Owner, r.Sharers = DirOwned, p, 0
}

// Demote rebuilds the record after the owner's data came back home:
// shared, with the owner a sharer iff it kept a copy, uncached if that
// leaves none.
func (r *DirRecord) Demote(owner int, kept bool) {
	r.State, r.Sharers = DirShared, 0
	if kept {
		r.Share(owner)
	}
	if r.Sharers == 0 {
		r.State = DirUncached
	}
}

// Drop removes p's registration (a replacement hint or a CU drop
// notice); a shared block whose last sharer leaves is uncached.
func (r *DirRecord) Drop(p int) {
	r.Sharers &^= 1 << uint(p)
	if r.Sharers == 0 && r.State == DirShared {
		r.State = DirUncached
	}
}

// Relinquish handles p giving up its copy with a write-back or a flush:
// the owner leaves the block uncached, anyone else drops.
func (r *DirRecord) Relinquish(p int) {
	if r.State == DirOwned && r.Owner == p {
		r.State, r.Sharers = DirUncached, 0
		return
	}
	r.Drop(p)
}

// DirDump is one block's directory entry: its record and its
// serialization state.
type DirDump struct {
	DirRecord
	Busy   bool // a transaction holds the entry
	Queued int  // transactions waiting on the entry
}

// LineDump is one node's view of a block: its cached copy (State
// cache.Invalid when it holds none) and its write-back of the block
// still in flight, if any.
type LineDump struct {
	State   cache.State
	Dirty   bool
	Counter uint8
	Data    []uint32 // nil without a copy
	// PendingWB: dirty data sent home and not yet consumed there.
	PendingWB bool
	// CancelledWB: write-backs a forwarded request superseded, each
	// still to be discarded on arrival.
	CancelledWB int
}

// BlockDump is the global coherence picture of one block: its directory
// entry (nil when the home never created one), the memory image at its
// home, and every node's view.
type BlockDump struct {
	Block  uint32
	Dir    *DirDump
	Memory []uint32
	Lines  []LineDump // indexed by node
	// The storage Dir and the copies' Data point into.
	dir   DirDump
	words []uint32
}

// DumpBlock fills bd with one block's directory, memory, cache and
// write-back state, reusing the storage of bd's last picture: the
// picture's slices and Dir are bd's own, valid until its next fill.
func (s *System) DumpBlock(block uint32, bd *BlockDump) {
	n, wb := len(s.caches), len(cache.Line{}.Data)
	bd.Block, bd.Dir = block, nil
	if d := s.dirEntryAt(block); d != nil {
		bd.dir = DirDump{DirRecord: d.DirRecord, Busy: d.busy, Queued: len(d.waitq)}
		bd.Dir = &bd.dir
	}
	bd.Memory = append(bd.Memory[:0], s.mems[s.HomeOf(block)].Block(block)...)
	bd.Lines = append(bd.Lines[:0], make([]LineDump, n)...)
	bd.words = append(bd.words[:0], make([]uint32, n*wb)...)
	for p, c := range s.caches {
		ld := &bd.Lines[p]
		if ln := c.Lookup(block); ln != nil {
			ld.State, ld.Dirty, ld.Counter = ln.State, ln.Dirty, ln.Counter
			ld.Data = bd.words[p*wb : (p+1)*wb : (p+1)*wb]
			copy(ld.Data, ln.Data[:])
		}
		_, ld.PendingWB = s.procs[p].pendingWB[block]
		ld.CancelledWB = s.procs[p].cancelledWB[block]
	}
}
