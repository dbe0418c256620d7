package trace

import "fmt"

// TracerState is a deep copy of a tracer's accumulated contents. It can
// only be taken at quiescence — no transaction in flight — so the live
// ring and the record free list (pure scratch) are not part of it.
type TracerState struct {
	nextID     TxnID
	store      bool
	spans      []TxnSpan
	stalls     []StallRec
	spanCap    int
	stallCap   int
	spanN      uint64
	stallN     uint64
	agg        [][numCategories]uint64
	lastRel    []ReleaseInfo
	kindCount  [numTxnKinds]uint64
	kindCycles [numTxnKinds]uint64
	latCount   uint64
	latSum     uint64
	latBkt     [latencyBuckets]uint64
	blocks     []blockAgg
	hops       uint64
	flits      uint64
	ackDrain   uint64
}

// SnapshotState captures the tracer's accumulated contents. Nil-safe: a
// nil tracer snapshots to nil. Panics if any transaction is still live.
func (t *Tracer) SnapshotState() *TracerState {
	if t == nil {
		return nil
	}
	if t.nlive != 0 {
		panic(fmt.Sprintf("trace: SnapshotState with %d live transactions", t.nlive))
	}
	st := &TracerState{
		nextID:     t.nextID,
		store:      t.store,
		spans:      make([]TxnSpan, len(t.spans)),
		stalls:     append([]StallRec(nil), t.stalls...),
		spanCap:    t.spanCap,
		stallCap:   t.stallCap,
		spanN:      t.spanN,
		stallN:     t.stallN,
		agg:        append([][numCategories]uint64(nil), t.agg...),
		lastRel:    append([]ReleaseInfo(nil), t.lastRel...),
		kindCount:  t.kindCount,
		kindCycles: t.kindCycles,
		latCount:   t.latCount,
		latSum:     t.latSum,
		latBkt:     t.latBkt,
		blocks:     append([]blockAgg(nil), t.blocks...),
		hops:       t.hops,
		flits:      t.flits,
		ackDrain:   t.ackDrain,
	}
	for i, s := range t.spans {
		s.Targets = append([]TargetSpan(nil), s.Targets...)
		st.spans[i] = s
	}
	return st
}

// RestoreState loads a snapshot into t, replacing all accumulated
// contents. The target must be built for the snapshot source's
// processor count, span limit and storage (so retention capping
// continues identically) and must have no live transactions.
func (t *Tracer) RestoreState(st *TracerState) {
	if t == nil {
		if st != nil {
			panic("trace: RestoreState on a nil tracer")
		}
		return
	}
	if st == nil {
		panic("trace: RestoreState with nil state on a live tracer")
	}
	if t.nlive != 0 {
		panic(fmt.Sprintf("trace: RestoreState with %d live transactions", t.nlive))
	}
	if len(t.agg) != len(st.agg) {
		panic(fmt.Sprintf("trace: RestoreState processor count mismatch (%d vs %d)", len(t.agg), len(st.agg)))
	}
	if t.spanCap != st.spanCap || t.stallCap != st.stallCap || t.store != st.store {
		panic(fmt.Sprintf("trace: RestoreState span-limit or storage mismatch (%d/%d/%v vs %d/%d/%v)",
			t.spanCap, t.stallCap, t.store, st.spanCap, st.stallCap, st.store))
	}
	t.nextID = st.nextID
	t.spans = t.spans[:0]
	for _, s := range st.spans {
		s.Targets = append([]TargetSpan(nil), s.Targets...)
		t.spans = append(t.spans, s)
	}
	t.stalls = append(t.stalls[:0], st.stalls...)
	t.spanN = st.spanN
	t.stallN = st.stallN
	copy(t.agg, st.agg)
	copy(t.lastRel, st.lastRel)
	t.kindCount = st.kindCount
	t.kindCycles = st.kindCycles
	t.latCount = st.latCount
	t.latSum = st.latSum
	t.latBkt = st.latBkt
	t.blocks = append(t.blocks[:0], st.blocks...)
	t.hops = st.hops
	t.flits = st.flits
	t.ackDrain = st.ackDrain
}
