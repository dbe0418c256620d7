package proto

import "coherencesim/internal/cache"

// This file exports a small read-only introspection surface over the
// protocol state — directory entries, cache lines, memory words, and
// in-flight bookkeeping — for the model checker's conformance driver
// (internal/mc) and for debugging tools. It performs no mutation and no
// simulation; call it only from outside engine context or at quiescence.

// DirState is the exported mirror of the home directory state.
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

// DirDump is one block's directory record.
type DirDump struct {
	State   DirState
	Owner   int    // meaningful only when State == DirOwned
	Sharers uint64 // bitmap over nodes
	Busy    bool   // a transaction holds the entry
	Queued  int    // transactions waiting on the entry
}

// LineDump is one node's cached copy of a block.
type LineDump struct {
	Present bool
	State   cache.State
	Dirty   bool
	Counter uint8
	Data    []uint32
}

// BlockDump is the global coherence picture of one block: its directory
// entry, the memory image at its home, and every node's cached copy.
type BlockDump struct {
	Block  uint32
	Dir    DirDump
	Memory []uint32
	Lines  []LineDump // indexed by node
}

// DumpBlock snapshots one block's directory, memory, and cache state.
// The returned slices are fresh copies safe to retain.
func (s *System) DumpBlock(block uint32) BlockDump {
	bd := BlockDump{Block: block, Lines: make([]LineDump, len(s.caches))}
	if d := s.dirEntryAt(block); d != nil {
		bd.Dir = DirDump{
			State:   DirState(d.state),
			Owner:   d.owner,
			Sharers: d.sharers,
			Busy:    d.busy,
			Queued:  len(d.waitq),
		}
		if bd.Dir.State != DirOwned {
			bd.Dir.Owner = 0
		}
	}
	mem := s.mems[s.HomeOf(block)].Block(block)
	bd.Memory = append([]uint32(nil), mem...)
	for p, c := range s.caches {
		if ln := c.Lookup(block); ln != nil {
			bd.Lines[p] = LineDump{
				Present: true,
				State:   ln.State,
				Dirty:   ln.Dirty,
				Counter: ln.Counter,
				Data:    append([]uint32(nil), ln.Data[:]...),
			}
		}
	}
	return bd
}
