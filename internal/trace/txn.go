package trace

import (
	"coherencesim/internal/sim"
	"math/bits"
	"sort"
)

// This file implements the causal coherence-transaction tracer: every
// memory operation that leaves a processor gets a transaction ID, the
// protocol engines record its lifecycle as spans (issue, directory
// arrival, directory service, invalidation/update fan-out with
// per-target ack spans, completion), and the machine links each
// processor stall interval back to the transaction that released it.
// Completed transactions fold into per-proc per-category sim-time
// aggregates — the paper's overhead-breakdown decomposition.
//
// Everything is keyed to simulated time and recorded in event-execution
// order, so traced runs are deterministic (byte-identical at any
// -parallel worker count and across pooled machine reuse). A nil
// *Tracer is a valid no-op sink, and every method is also a no-op on
// TxnID 0, so untraced hot paths pay a single nil check.

// TxnID identifies one coherence transaction within a Tracer. 0 means
// "no transaction" (untraced, or tracing disabled).
type TxnID uint32

// TxnKind classifies a transaction by the processor operation that
// issued it.
type TxnKind uint8

const (
	TxnRead         TxnKind = iota // read miss (data fetch)
	TxnWrite                       // write-invalidate ownership acquisition
	TxnWriteThrough                // update-protocol write-through
	TxnAtomic                      // atomic read-modify-write at the home
	TxnWriteback                   // dirty eviction writeback
	numTxnKinds
)

func (k TxnKind) String() string {
	switch k {
	case TxnRead:
		return "read"
	case TxnWrite:
		return "write-inv"
	case TxnWriteThrough:
		return "write-upd"
	case TxnAtomic:
		return "atomic"
	case TxnWriteback:
		return "writeback"
	}
	return "?"
}

// FanKind says what a transaction's directory fan-out carried.
type FanKind uint8

const (
	_      FanKind = iota // the zero value: no fan-out
	FanInv                // invalidations (write-invalidate)
	FanUpd                // word updates (PU/CU)
)

// Category is one bucket of the per-processor overhead breakdown — the
// paper's decomposition of where the cycles go.
type Category uint8

const (
	CatCompute          Category = iota // busy (instruction) time
	CatReadMiss                         // stalled on a read miss
	CatWriteOwnership                   // stalled acquiring ownership / write-through latency
	CatInvalidationWait                 // stalled on an invalidation fan-out's acks
	CatUpdateTraffic                    // stalled on an update fan-out's acks
	CatLockWait                         // spinning/parked inside a lock acquire
	CatBarrierWait                      // spinning/parked inside a barrier episode
	CatOtherSync                        // other synchronization stalls
	CatIdle                             // cycles not attributed to any category
	numCategories
)

func (c Category) String() string {
	switch c {
	case CatCompute:
		return "compute"
	case CatReadMiss:
		return "read-miss"
	case CatWriteOwnership:
		return "write-ownership"
	case CatInvalidationWait:
		return "invalidation-wait"
	case CatUpdateTraffic:
		return "update-traffic"
	case CatLockWait:
		return "lock-wait"
	case CatBarrierWait:
		return "barrier-wait"
	case CatOtherSync:
		return "other-sync"
	case CatIdle:
		return "idle"
	}
	return "?"
}

// CategoryNames lists every breakdown category in export order.
func CategoryNames() []string {
	out := make([]string, numCategories)
	for i := Category(0); i < numCategories; i++ {
		out[i] = i.String()
	}
	return out
}

// TargetSpan is one per-target leg of a fan-out: the interval from the
// invalidation/update leaving the home to its ack arriving back.
type TargetSpan struct {
	Target int
	Sent   sim.Time
	Acked  sim.Time
}

// TxnSpan is a completed transaction retained for timeline export.
type TxnSpan struct {
	ID         TxnID
	Proc       int
	Kind       TxnKind
	Fan        FanKind
	Block      uint32
	Issue      sim.Time
	HomeArrive sim.Time // first arrival at the home node (0 = local hit path)
	DirStart   sim.Time // directory began servicing (after busy-wait)
	FanoutAt   sim.Time // fan-out dispatched
	Retired    sim.Time // requester-visible completion (update family)
	End        sim.Time // fully complete (all acks drained)
	Targets    []TargetSpan
	Hops       int
	Flits      uint64
}

// StallRec is one attributed processor stall interval.
type StallRec struct {
	Proc   int
	Cat    Category
	Reason string // what the processor waited for: "read-stall", "spin-wait", ...
	Start  sim.Time
	End    sim.Time
	By     TxnID // transaction that released the stall (0 = none known)
}

// ReleaseInfo describes the transaction that most recently completed
// work visible to a processor — what an ending stall gets attributed to.
type ReleaseInfo struct {
	ID      TxnID
	Kind    TxnKind
	Fan     FanKind
	Targets int
}

// txnRec is the live (in-flight) record of a transaction.
type txnRec struct {
	span    TxnSpan
	targets int // fan-out legs acked; span.Targets holds them only when storing
}

// latencyBuckets is the power-of-two bucket count of the transaction
// latency histogram: bucket i counts latencies <= 2^i cycles.
const latencyBuckets = 28

// Tracer records transaction lifecycles and stall attribution for one
// machine run. It is single-threaded like the simulation itself.
type Tracer struct {
	nextID TxnID
	// live is a power-of-two ring of the in-flight records indexed by
	// id & (len-1). Begin doubles it whenever the new ID's slot is taken,
	// so a slot holds at most one live record, and a lookup that finds
	// another ID there (retired or never issued) is a miss.
	live  []*txnRec
	nlive int
	free  []*txnRec

	// store turns on span and stall storage (StoreRecords): spans up to
	// spanCap, every stall. Either way both are counted against their
	// caps, so Dropped reads the same whether the tracer stores or not.
	store    bool
	spans    []TxnSpan
	spanCap  int
	spanN    uint64 // completed spans, stored or not
	stalls   []StallRec
	stallCap int
	stallN   uint64 // attributed stall intervals, stored or not

	// targetArena backs every retained span's Targets slice: one shared
	// append-only buffer instead of one fresh copy per span. Retained
	// slices are taken with a full slice expression, so later arena
	// growth can never overwrite them.
	targetArena []TargetSpan

	agg     [][numCategories]uint64 // [proc][category] cycles
	lastRel []ReleaseInfo           // [proc]

	kindCount  [numTxnKinds]uint64
	kindCycles [numTxnKinds]uint64

	latCount uint64
	latSum   uint64
	latBkt   [latencyBuckets]uint64

	blocks []blockAgg // indexed by block number: allocations are dense from 0

	hops     uint64
	flits    uint64
	ackDrain uint64 // cycles between requester-visible retire and last ack
}

type blockAgg struct {
	txns   uint64
	cycles uint64
}

// DefaultSpanLimit is the span limit NewTracer uses when called with
// limit <= 0.
const DefaultSpanLimit = 4096

// NewTracer builds a tracer for a machine of the given processor count.
// It keeps the aggregates Snapshot exports and stores no spans or
// stalls; StoreRecords opts in for the timeline writer. limit caps the
// completed-transaction spans a storing tracer keeps, and Dropped counts
// the spans past it and the stalls past 4x it; the aggregate breakdown
// always covers every transaction regardless.
func NewTracer(procs, limit int) *Tracer {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &Tracer{
		live:     make([]*txnRec, 64),
		spanCap:  limit,
		stallCap: 4 * limit,
		agg:      make([][numCategories]uint64, procs),
		lastRel:  make([]ReleaseInfo, procs),
	}
}

// StoreRecords turns on span and stall storage — what WriteTimeline
// exports — and returns t. Call it before the run. Spans are kept up to
// the limit, stalls all of them.
func (t *Tracer) StoreRecords() *Tracer {
	t.store = true
	return t
}

// slot is id's index in the live ring.
func (t *Tracer) slot(id TxnID) int { return int(uint32(id) & uint32(len(t.live)-1)) }

// rec returns id's live record, nil for 0, retired and never-issued IDs.
func (t *Tracer) rec(id TxnID) *txnRec {
	if t == nil || id == 0 {
		return nil
	}
	if r := t.live[t.slot(id)]; r != nil && r.span.ID == id {
		return r
	}
	return nil
}

// Begin opens a transaction issued by proc against block at time now and
// returns its ID. On a nil tracer it returns 0.
func (t *Tracer) Begin(proc int, kind TxnKind, block uint32, now sim.Time) TxnID {
	if t == nil {
		return 0
	}
	t.nextID++
	id := t.nextID
	for t.live[t.slot(id)] != nil {
		// Live IDs are distinct modulo the ring size, so also modulo
		// twice it: rehashing cannot collide.
		old := t.live
		t.live = make([]*txnRec, 2*len(old))
		for _, r := range old {
			if r != nil {
				t.live[t.slot(r.span.ID)] = r
			}
		}
	}
	if len(t.free) == 0 {
		slab := make([]txnRec, 16) // one allocation per 16 records in flight
		for i := range slab {
			t.free = append(t.free, &slab[i])
		}
	}
	r := t.free[len(t.free)-1]
	t.free = t.free[:len(t.free)-1]
	if t.store && r.span.Targets == nil {
		// Size the fan-out buffer for the worst case (every other
		// processor acks) up front: one allocation per record lifetime
		// instead of log2(procs) doublings under TargetAck.
		r.span.Targets = make([]TargetSpan, 0, max(len(t.lastRel)-1, 4))
	}
	*r = txnRec{span: TxnSpan{ID: id, Proc: proc, Kind: kind, Block: block, Issue: now, Targets: r.span.Targets[:0]}}
	t.live[t.slot(id)] = r
	t.nlive++
	return id
}

// HomeArrive records the transaction's first arrival at its home node.
// Later arrivals (directory-retry re-entries) keep the first timestamp.
func (t *Tracer) HomeArrive(id TxnID, now sim.Time) {
	if r := t.rec(id); r != nil && r.span.HomeArrive == 0 {
		r.span.HomeArrive = now
	}
}

// DirStart records the directory beginning service (after any busy-wait
// in the entry's queue); the last service attempt wins.
func (t *Tracer) DirStart(id TxnID, now sim.Time) {
	if r := t.rec(id); r != nil {
		r.span.DirStart = now
	}
}

// Fanout records the directory dispatching an invalidation or update
// fan-out; the per-leg detail arrives via TargetAck.
func (t *Tracer) Fanout(id TxnID, fan FanKind, now sim.Time) {
	if r := t.rec(id); r != nil {
		r.span.Fan = fan
		r.span.FanoutAt = now
	}
}

// TargetAck records one per-target fan-out leg: the message left the
// home at sent and its ack arrived back at acked.
func (t *Tracer) TargetAck(id TxnID, target int, sent, acked sim.Time) {
	if r := t.rec(id); r != nil {
		r.targets++
		if t.store {
			r.span.Targets = append(r.span.Targets, TargetSpan{Target: target, Sent: sent, Acked: acked})
		}
	}
}

// Hop accumulates one network hop's flit payload against the transaction.
func (t *Tracer) Hop(id TxnID, flits int) {
	if t == nil || id == 0 {
		return
	}
	t.hops++
	t.flits += uint64(flits)
	if r := t.rec(id); r != nil {
		r.span.Hops++
		r.span.Flits += uint64(flits)
	}
}

// fold accumulates a completing transaction into the latency histogram,
// per-kind stats, and per-block heat map.
func (t *Tracer) fold(r *txnRec, end sim.Time) {
	lat := uint64(end - r.span.Issue)
	k := r.span.Kind
	t.kindCount[k]++
	t.kindCycles[k] += lat
	t.latCount++
	t.latSum += lat
	b := bits.Len64(lat)
	if b >= latencyBuckets {
		b = latencyBuckets - 1
	}
	t.latBkt[b]++
	if n := int(r.span.Block) + 1; n > len(t.blocks) {
		t.blocks = append(t.blocks, make([]blockAgg, n-len(t.blocks))...)
	}
	ba := &t.blocks[r.span.Block]
	ba.txns++
	ba.cycles += lat
}

// release marks the transaction as the most recent releaser for proc.
func (t *Tracer) release(proc int, r *txnRec) {
	if proc >= 0 && proc < len(t.lastRel) {
		t.lastRel[proc] = ReleaseInfo{
			ID: r.span.ID, Kind: r.span.Kind, Fan: r.span.Fan, Targets: r.targets,
		}
	}
}

// retain takes a finished record off the live ring, counts its span —
// storing it when the tracer stores, up to the cap — and recycles it.
func (t *Tracer) retain(r *txnRec) {
	t.live[t.slot(r.span.ID)] = nil
	t.nlive--
	t.spanN++
	if t.store && len(t.spans) < t.spanCap {
		if t.spans == nil {
			// The cap is fixed, so pay the whole buffer once instead of
			// log2(cap) doubling reallocations on the hot path.
			t.spans = make([]TxnSpan, 0, t.spanCap)
		}
		s := r.span
		s.Targets = nil
		if n := len(r.span.Targets); n > 0 {
			start := len(t.targetArena)
			t.targetArena = append(t.targetArena, r.span.Targets...)
			s.Targets = t.targetArena[start:len(t.targetArena):len(t.targetArena)]
		}
		t.spans = append(t.spans, s)
	}
	t.free = append(t.free, r)
}

// End completes a transaction whose requester-visible finish and final
// completion coincide (reads, WI ownership, writebacks).
func (t *Tracer) End(id TxnID, now sim.Time) {
	r := t.rec(id)
	if r == nil {
		return
	}
	r.span.Retired = now
	r.span.End = now
	t.fold(r, now)
	t.release(r.span.Proc, r)
	t.retain(r)
}

// Retired records the requester-visible completion of an update-family
// transaction (the write retires; acks may still be in flight). The
// record stays live until AcksDrained.
func (t *Tracer) Retired(id TxnID, now sim.Time) {
	r := t.rec(id)
	if r == nil {
		return
	}
	r.span.Retired = now
	t.fold(r, now)
	t.release(r.span.Proc, r)
}

// AcksDrained finally completes an update-family transaction once every
// outstanding ack has come home (what a fence waits for).
func (t *Tracer) AcksDrained(id TxnID, now sim.Time) {
	r := t.rec(id)
	if r == nil {
		return
	}
	r.span.End = now
	if r.span.Retired != 0 && now > r.span.Retired {
		t.ackDrain += uint64(now - r.span.Retired)
	}
	t.release(r.span.Proc, r)
	t.retain(r)
}

// CacheTouch notes that the transaction just mutated proc's cache (an
// invalidation landed, an update was applied), so a spin wake on proc is
// attributed to it.
func (t *Tracer) CacheTouch(proc int, id TxnID) {
	if r := t.rec(id); r != nil {
		t.release(proc, r)
	}
}

// LastRelease returns the transaction that most recently completed work
// visible to proc — captured by the machine at the release instant.
func (t *Tracer) LastRelease(proc int) ReleaseInfo {
	if t == nil || proc < 0 || proc >= len(t.lastRel) {
		return ReleaseInfo{}
	}
	return t.lastRel[proc]
}

// AddStall attributes one processor stall interval, named by reason, to
// a category, with the releasing transaction (if known) for
// flow-linking.
func (t *Tracer) AddStall(proc int, cat Category, reason string, from, to sim.Time, by TxnID) {
	if t == nil || to <= from {
		return
	}
	if proc >= 0 && proc < len(t.agg) {
		t.agg[proc][cat] += uint64(to - from)
	}
	t.stallN++
	if t.store {
		t.stalls = append(t.stalls, StallRec{Proc: proc, Cat: cat, Reason: reason, Start: from, End: to, By: by})
	}
}

// AddCompute accumulates proc's busy (instruction) cycles.
func (t *Tracer) AddCompute(proc int, busy sim.Time) {
	if t == nil || proc < 0 || proc >= len(t.agg) {
		return
	}
	t.agg[proc][CatCompute] += uint64(busy)
}

// Spans returns the retained completed-transaction spans in completion
// order (bounded by the tracer's limit; none unless StoreRecords).
func (t *Tracer) Spans() []TxnSpan {
	if t == nil {
		return nil
	}
	return t.spans
}

// Stalls returns every attributed stall record in event order (none
// unless StoreRecords).
func (t *Tracer) Stalls() []StallRec {
	if t == nil {
		return nil
	}
	return t.stalls
}

// Procs returns the processor count the tracer was built for.
func (t *Tracer) Procs() int {
	if t == nil {
		return 0
	}
	return len(t.agg)
}

// hotBlockLimit caps the exported per-block heat list.
const hotBlockLimit = 32

// Snapshot folds the tracer into the exported breakdown document for a
// run that simulated the given cycle count. Deterministic: the hot-block
// list is sorted by a total order.
func (t *Tracer) Snapshot(cycles sim.Time) *BreakdownSnapshot {
	if t == nil {
		return nil
	}
	procs := len(t.agg)
	s := &BreakdownSnapshot{
		Procs:      procs,
		Cycles:     uint64(cycles),
		Categories: CategoryNames(),
		PerProc:    make([][]uint64, procs),
		Totals:     make([]uint64, numCategories),
		Hops:       t.hops,
		Flits:      t.flits,
		AckDrain:   t.ackDrain,
		Dropped:    DroppedCounts{Spans: over(t.spanN, t.spanCap), Stalls: over(t.stallN, t.stallCap)},
	}
	rows := make([]uint64, procs*int(numCategories)) // one backing array for every per-proc row
	for p := 0; p < procs; p++ {
		row := rows[p*int(numCategories) : (p+1)*int(numCategories) : (p+1)*int(numCategories)]
		var sum uint64
		for c := Category(0); c < CatIdle; c++ {
			row[c] = t.agg[p][c]
			sum += row[c]
		}
		if u := uint64(cycles); u > sum {
			row[CatIdle] = u - sum
		}
		for c := Category(0); c < numCategories; c++ {
			s.Totals[c] += row[c]
		}
		s.PerProc[p] = row
	}
	for k := TxnKind(0); k < numTxnKinds; k++ {
		if t.kindCount[k] == 0 {
			continue
		}
		s.Txns = append(s.Txns, TxnKindStat{Kind: k.String(), Count: t.kindCount[k], Cycles: t.kindCycles[k]})
	}
	s.Latency = LatencyHist{Count: t.latCount, Sum: t.latSum}
	for b := 0; b < latencyBuckets; b++ {
		if t.latBkt[b] == 0 {
			continue
		}
		s.Latency.Buckets = append(s.Latency.Buckets, LatencyBucket{Le: bucketLe(b), N: t.latBkt[b]})
	}
	hot := make([]HotBlock, 0, len(t.blocks))
	for b, a := range t.blocks {
		if a.txns > 0 {
			hot = append(hot, HotBlock{Block: uint32(b), Txns: a.txns, Cycles: a.cycles})
		}
	}
	if len(hot) > 0 {
		sort.Slice(hot, func(i, j int) bool {
			if hot[i].Cycles != hot[j].Cycles {
				return hot[i].Cycles > hot[j].Cycles
			}
			if hot[i].Txns != hot[j].Txns {
				return hot[i].Txns > hot[j].Txns
			}
			return hot[i].Block < hot[j].Block
		})
		if len(hot) > hotBlockLimit {
			hot = hot[:hotBlockLimit]
		}
		s.HotBlocks = hot
	}
	return s
}

// over is how far a count of n records runs past limit.
func over(n uint64, limit int) uint64 {
	if n > uint64(limit) {
		return n - uint64(limit)
	}
	return 0
}

// bucketLe is the inclusive upper bound of latency bucket b (2^b - 1
// fits; we report 2^b as the conventional "le" edge, with the last
// bucket open-ended).
func bucketLe(b int) uint64 {
	if b >= latencyBuckets-1 {
		return 0 // open-ended (+Inf)
	}
	return uint64(1) << uint(b)
}

// BucketEdges returns the histogram's "le" edges in order, 0 meaning
// +Inf, matching Snapshot's bucket encoding. Consumers folding many
// snapshots into one cumulative histogram (the service's Prometheus
// export) index buckets by these edges.
func BucketEdges() []uint64 {
	out := make([]uint64, latencyBuckets)
	for b := 0; b < latencyBuckets; b++ {
		out[b] = bucketLe(b)
	}
	return out
}

// BucketIndex maps a "le" edge back to its bucket index, -1 if unknown.
func BucketIndex(le uint64) int {
	if le == 0 {
		return latencyBuckets - 1
	}
	if b := bits.Len64(le) - 1; b >= 0 && b < latencyBuckets && uint64(1)<<uint(b) == le {
		return b
	}
	return -1
}

// LatencyBucketCount is the fixed bucket count of the transaction
// latency histogram.
const LatencyBucketCount = latencyBuckets
