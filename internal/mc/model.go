// Package mc is an exhaustive bounded model checker for the three
// directory protocols (WI, PU, CU) in internal/proto.
//
// Each protocol's per-block behaviour is expressed as guarded actions
// over an explicit state: per-node cache lines, the full-map directory
// (including its busy/wait-queue serialization), per-channel FIFO
// message queues, memory words, and per-processor operation state. The
// two action families are
//
//   - Issue(p, op): an idle processor with remaining budget starts a
//     read, write, atomic fetch-add, or flush, exactly as the machine
//     layer would drive proto.System; and
//   - Deliver(src, dst): the head message of a non-empty channel is
//     delivered and its handler runs atomically, mirroring the
//     implementation's event-at-a-time execution.
//
// The model preserves exactly the ordering the implementation relies on
// (per-(src,dst) mesh FIFO) and relaxes everything else: memory latency
// and switch timing collapse into the delivery action, so the explored
// interleavings are a superset of what any timing assignment of the real
// mesh can produce. Bounded exhaustive reachability over this space —
// with canonical state encoding for deduplication — checks the
// single-writer, directory-consistency, data-value containment, and
// deadlock/livelock invariants on every reachable state, and the full
// quiescent-state invariant suite (the model analogue of
// proto.CheckCoherence) whenever no message is in flight.
//
// A conformance driver (conformance.go) replays operation schedules
// through the live proto.System and cross-checks the resulting stable
// states against the model, so the model cannot silently drift from the
// code it vouches for. Violations serialize as compact JSON traces
// (trace.go) that replay deterministically as go test regression cases.
package mc

import (
	"fmt"

	"coherencesim/internal/proto"
)

// Hard bounds on the model's configuration. These size the fixed arrays
// in the state representation; the checker is meant for small exhaustive
// configurations, not big simulations.
const (
	MaxProcs  = 4
	MaxBlocks = 2
	MaxWords  = 2
	MaxOps    = 4 // per-processor issue budget
)

// OpKind enumerates the operations a processor may issue.
type OpKind uint8

const (
	OpRead OpKind = iota
	OpWrite
	OpAtomic // fetch-add 1, the shape every construct in the paper uses
	OpFlush
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAtomic:
		return "atomic"
	case OpFlush:
		return "flush"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// ParseOpKind inverts OpKind.String: it is how traces, their op sets and
// the -ops flag name an operation.
func ParseOpKind(s string) (OpKind, error) {
	for k := OpRead; k <= OpFlush; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("mc: unknown op kind %q", s)
}

// Faults selects deliberate protocol bugs for checker self-tests: each
// produces a counterexample the invariant suite must catch. The zero
// value is the faithful model.
type Faults struct {
	// SkipInvAck: a WI sharer swallows one invalidation without
	// acknowledging; the home waits forever (deadlock).
	SkipInvAck bool
	// GrantBeforeAcks: the WI home grants ownership while invalidations
	// are still in flight (single-writer violation).
	GrantBeforeAcks bool
	// SkipDropNotice: a CU copy self-invalidates at the threshold but
	// never tells the home (stale sharer at quiescence).
	SkipDropNotice bool
	// PhantomRetention: the PU home grants private-block retention
	// without checking that the writer is the sole sharer (exclusive
	// copy alongside other copies).
	PhantomRetention bool
	// StaleUpdateValue: the home multicasts the pre-write value instead
	// of the written one (data-value violation at quiescence).
	StaleUpdateValue bool
}

// Config bounds one exhaustive exploration.
type Config struct {
	Protocol    proto.Protocol
	Procs       int
	Blocks      int
	Words       int
	OpsPerProc  int // issue budget per processor ("depth" of the search)
	CUThreshold uint8
	// DisableRetention mirrors proto.Config.DisableRetention (PU).
	DisableRetention bool
	// OpSet restricts the issue alphabet; empty means all four kinds.
	OpSet []OpKind
	// Faults injects deliberate bugs (checker self-tests only).
	Faults Faults
	// MaxStates aborts the exploration (with an error, never silently)
	// beyond this many distinct states; 0 means unlimited.
	MaxStates int
}

// Validate checks the bounds, and that OpSet names known kinds, each
// at most once.
func (c Config) Validate() error {
	switch {
	case c.Procs < 2 || c.Procs > MaxProcs:
		return fmt.Errorf("mc: procs %d out of range [2,%d]", c.Procs, MaxProcs)
	case c.Blocks < 1 || c.Blocks > MaxBlocks:
		return fmt.Errorf("mc: blocks %d out of range [1,%d]", c.Blocks, MaxBlocks)
	case c.Words < 1 || c.Words > MaxWords:
		return fmt.Errorf("mc: words %d out of range [1,%d]", c.Words, MaxWords)
	case c.OpsPerProc < 1 || c.OpsPerProc > MaxOps:
		return fmt.Errorf("mc: ops per proc %d out of range [1,%d]", c.OpsPerProc, MaxOps)
	case c.CUThreshold < 1:
		return fmt.Errorf("mc: CU threshold must be >= 1")
	case c.MaxStates < 0:
		return fmt.Errorf("mc: max states %d is negative", c.MaxStates)
	}
	var kinds uint8
	for _, k := range c.OpSet {
		switch {
		case k > OpFlush:
			return fmt.Errorf("mc: unknown op kind %v", k)
		case kinds&(1<<k) != 0:
			return fmt.Errorf("mc: op kind %v repeated", k)
		}
		kinds |= 1 << k
	}
	switch c.Protocol {
	case proto.WI, proto.PU, proto.CU:
	default:
		return fmt.Errorf("mc: unknown protocol %v", c.Protocol)
	}
	return nil
}

// DefaultConfig returns the smoke-slice bounds for a protocol.
func DefaultConfig(p proto.Protocol) Config {
	return Config{
		Protocol:    p,
		Procs:       2,
		Blocks:      1,
		Words:       1,
		OpsPerProc:  2,
		CUThreshold: 4,
	}
}

// opSet returns the effective issue alphabet kinds.
func (c Config) opSet() []OpKind {
	if len(c.OpSet) == 0 {
		return []OpKind{OpRead, OpWrite, OpAtomic, OpFlush}
	}
	return c.OpSet
}

// homeOf mirrors proto.DefaultConfig's block-interleaved home mapping.
func (c Config) homeOf(block uint8) uint8 { return uint8(int(block) % c.Procs) }

// lineState is a model cache line's coherence state.
type lineState uint8

const (
	lInvalid lineState = iota
	lShared
	lExclusive
)

// line is one node's copy of one block. The model's caches hold every
// block without conflict (configurations are far below real capacity),
// so there are no conflict evictions; flushes cover the write-back and
// relinquish paths.
type line struct {
	state lineState
	dirty bool
	ctr   uint8
	data  [MaxWords]uint8
}

// dState is the model directory state, mirroring proto's dirState.
type dState uint8

const (
	dUncached dState = iota
	dShared
	dOwned
)

// pendKind tags the transaction a busy directory entry is carrying.
type pendKind uint8

const (
	pendNone    pendKind = iota
	pendRead             // read fetching from a dirty/retained owner
	pendWI               // WI acquisition collecting invalidation acks
	pendWIOwner          // WI acquisition fetching from the old owner
	pendDemote           // PU/CU demoting a retained owner, then resuming
)

// pendTx is the home-side transient state of a multi-message directory
// transaction (the model analogue of the readMsg/wiOp objects parked at
// the home while the entry is busy).
type pendTx struct {
	kind    pendKind
	req     uint8 // requesting node
	word    uint8
	acks    uint8 // WI invalidation acks still outstanding
	hasData bool
	data    [MaxWords]uint8
	resume  msg // pendDemote: the request to re-dispatch afterwards
}

// dir is one block's directory entry, including the busy/wait-queue
// serialization of the implementation.
type dir struct {
	state   dState
	owner   uint8
	sharers uint8 // bitmap over procs
	busy    bool
	pend    pendTx
	waitq   []msg // requests queued behind the busy entry, FIFO
}

func (d *dir) has(p uint8) bool         { return d.sharers&(1<<p) != 0 }
func (d *dir) add(p uint8)              { d.sharers |= 1 << p }
func (d *dir) remove(p uint8)           { d.sharers &^= 1 << p }
func (d *dir) othersMask(p uint8) uint8 { return d.sharers &^ (1 << p) }

// procOp is processor p's single in-flight operation. The model mirrors
// the test/workload harness discipline: a processor issues its next
// operation only after the previous one has fully completed (retired and
// drained of acknowledgements), matching release-consistency fences.
type procOp struct {
	active bool
	kind   OpKind
	block  uint8
	word   uint8
	val    uint8 // write value (assigned at issue)
	// Update-protocol acknowledgement accounting (the updTx analogue;
	// one per processor since operations are serialized per processor).
	txActive  bool
	txReplied bool
	txExp     uint8
	txGot     uint8
}

// proc is one processor's model state.
type proc struct {
	op     procOp
	issued uint8
	// pendingWB / cancelledWB mirror proto.procState: dirty data evicted
	// by a flush but not yet arrived at the home.
	pwbValid  [MaxBlocks]bool
	pwbData   [MaxBlocks][MaxWords]uint8
	cancelled [MaxBlocks]uint8
}

// msgKind enumerates the protocol messages.
type msgKind uint8

const (
	mNone           msgKind = iota
	mReadReq                // requester -> home: read miss (also write-allocate fetch)
	mReadOwnerFetch         // home -> owner: fetch for a read (demote to shared)
	mReadOwnerData          // owner -> home: data back
	mReadReply              // home -> requester: block data, install shared
	mWIReq                  // requester -> home: WI ownership request (write/atomic)
	mInv                    // home -> sharer: invalidate
	mInvAck                 // sharer -> home: invalidation acknowledged
	mWIOwnerFetch           // home -> old owner: fetch and invalidate
	mWIOwnerData            // owner -> home: data back
	mGrant                  // home -> requester: ownership grant (data optional)
	mWTReq                  // writer -> home: PU/CU write-through (word, value)
	mUpd                    // home -> sharer: update (word, value, writer)
	mUpdAck                 // sharer -> writer: update acknowledged
	mWTReply                // home -> writer: write-through reply (expected acks)
	mAtomReq                // requester -> home: PU/CU atomic fetch-add
	mAtomReply              // home -> requester: old value (+ block for new sharer)
	mWB                     // evictor -> home: dirty write-back (block data)
	mNote                   // node -> home: drop notice / replacement hint / relinquish
	mDemote                 // home -> owner: demote retained block to shared
	mDemoteData             // owner -> home: demoted data back
)

func (k msgKind) String() string {
	names := [...]string{"none", "read-req", "read-owner-fetch", "read-owner-data",
		"read-reply", "wi-req", "inv", "inv-ack", "wi-owner-fetch", "wi-owner-data",
		"grant", "wt-req", "upd", "upd-ack", "wt-reply", "atom-req", "atom-reply",
		"wb", "note", "demote", "demote-data"}
	if int(k) < len(names) {
		return names[k]
	}
	return fmt.Sprintf("msgKind(%d)", uint8(k))
}

// msg is one in-flight protocol message. src/dst are implicit in the
// channel holding it; they are kept for waitq entries and traces.
type msg struct {
	kind    msgKind
	src     uint8
	dst     uint8
	block   uint8
	word    uint8
	val     uint8 // written value (mWTReq/mWTReply/mUpd), old value (mAtomReply)
	val2    uint8 // new value (mAtomReply)
	aux     uint8 // writer id (mUpd), expected-ack count (replies), flags (below)
	hasData bool
	data    [MaxWords]uint8
}

// aux flag values for mNote and mReadReq / mAtomReq.
const (
	auxNoteDrop       = 0 // replacement hint / CU drop notice
	auxNoteRelinquish = 1 // clean-flush relinquish
	auxNeedData       = 1 // mAtomReq: requester holds no copy
)

// state is one global model state. All fields are value types except the
// waitq and channel slices, which clone() copies deeply.
type state struct {
	procs [MaxProcs]proc
	lines [MaxProcs][MaxBlocks]line
	dirs  [MaxBlocks]dir
	mem   [MaxBlocks][MaxWords]uint8
	// hist is the data-value containment invariant's bookkeeping: a
	// bitset (over the bounded value domain) of every value that has
	// legitimately existed for the word — initial zero, issued write
	// values, and atomic results. Monotone, so it is part of the state.
	hist [MaxBlocks][MaxWords]uint64
	// chans[src][dst] is the FIFO channel between two nodes, mirroring
	// the mesh's same-pair delivery order guarantee.
	chans [MaxProcs][MaxProcs][]msg
}

// newState returns the initial state: empty caches, uncached directory,
// zeroed memory, with the zero value recorded as legal for every word.
func newState(cfg Config) *state {
	st := &state{}
	for b := 0; b < cfg.Blocks; b++ {
		for w := 0; w < cfg.Words; w++ {
			st.hist[b][w] = 1 // bit 0: the initial zero
		}
	}
	return st
}

// clone deep-copies the state.
func (st *state) clone() *state {
	ns := &state{}
	*ns = *st
	for b := range ns.dirs {
		if q := st.dirs[b].waitq; len(q) > 0 {
			ns.dirs[b].waitq = append([]msg(nil), q...)
		}
	}
	for s := range ns.chans {
		for d := range ns.chans[s] {
			if q := st.chans[s][d]; len(q) > 0 {
				ns.chans[s][d] = append([]msg(nil), q...)
			}
		}
	}
	return ns
}

// send appends m to the (src,dst) channel.
func (st *state) send(m msg) { st.chans[m.src][m.dst] = append(st.chans[m.src][m.dst], m) }

// inFlight counts all queued messages.
func (st *state) inFlight(cfg Config) int {
	n := 0
	for s := 0; s < cfg.Procs; s++ {
		for d := 0; d < cfg.Procs; d++ {
			n += len(st.chans[s][d])
		}
	}
	return n
}

// quiescent reports whether no message is in flight and no operation is
// pending — the stable states on which the full invariant suite runs.
func (st *state) quiescent(cfg Config) bool {
	if st.inFlight(cfg) > 0 {
		return false
	}
	for p := 0; p < cfg.Procs; p++ {
		if st.procs[p].op.active {
			return false
		}
	}
	return true
}

// recordValue marks v as a legitimate value for (block, word). Values
// beyond the bitset width would make the containment invariant silently
// vacuous, so they are rejected by Config bounds: write values are
// issue-indexed (< Procs*OpsPerProc + 16) and atomic results increment
// from recorded values, bounded by the total operation budget.
func (st *state) recordValue(block, word uint8, v uint8) {
	if v >= 64 {
		panic(fmt.Sprintf("mc: value %d exceeds containment bitset", v))
	}
	st.hist[block][word] |= 1 << v
}

// valueLegal reports whether v has ever legitimately existed for the word.
func (st *state) valueLegal(block, word uint8, v uint8) bool {
	if v >= 64 {
		return false
	}
	return st.hist[block][word]&(1<<v) != 0
}

// writeValue returns the value processor p's i-th issued operation
// writes: unique per (processor, slot) so the containment invariant can
// attribute every byte it sees, and identical across schedules touching
// the same slot so canonical deduplication stays effective.
func writeValue(cfg Config, p, issued uint8) uint8 {
	return uint8(int(p)*cfg.OpsPerProc+int(issued)) + 1
}
