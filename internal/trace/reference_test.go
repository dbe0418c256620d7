package trace

import (
	"math/bits"
	"sort"

	"coherencesim/internal/sim"
)

// This file is the map-based transaction tracer that internal/trace
// shipped before the live table became a ring and the block heat map a
// slice, kept unchanged apart from the ref- prefix on its names, the
// unused fan-out target count, and stalls past the cap, which it now
// keeps as the live tracer does. It always stores spans and stalls. It is
// the oracle of TestTracerMatchesReference and FuzzTracerHooks: the ring
// tracer must export the same breakdown and releasers on every hook
// stream, and, when storing, the same spans and stalls.

type refTxnRec struct {
	span TxnSpan
}

type refTracer struct {
	nextID TxnID
	live   map[TxnID]*refTxnRec
	free   []*refTxnRec

	spans    []TxnSpan
	spanCap  int
	stalls   []StallRec
	stallCap int

	targetArena []TargetSpan

	droppedSpans  uint64
	droppedStalls uint64

	agg     [][numCategories]uint64
	lastRel []ReleaseInfo

	kindCount  [numTxnKinds]uint64
	kindCycles [numTxnKinds]uint64

	latCount uint64
	latSum   uint64
	latBkt   [latencyBuckets]uint64

	blocks map[uint32]blockAgg

	hops     uint64
	flits    uint64
	ackDrain uint64
}

func newRefTracer(procs, limit int) *refTracer {
	if limit <= 0 {
		limit = DefaultSpanLimit
	}
	return &refTracer{
		live:     make(map[TxnID]*refTxnRec, 64),
		spanCap:  limit,
		stallCap: 4 * limit,
		agg:      make([][numCategories]uint64, procs),
		lastRel:  make([]ReleaseInfo, procs),
		blocks:   make(map[uint32]blockAgg, 64),
	}
}

func (t *refTracer) Begin(proc int, kind TxnKind, block uint32, now sim.Time) TxnID {
	t.nextID++
	id := t.nextID
	var r *refTxnRec
	if n := len(t.free); n > 0 {
		r = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		r = &refTxnRec{}
		fanCap := len(t.lastRel) - 1
		if fanCap < 4 {
			fanCap = 4
		}
		r.span.Targets = make([]TargetSpan, 0, fanCap)
	}
	targets := r.span.Targets[:0]
	r.span = TxnSpan{ID: id, Proc: proc, Kind: kind, Block: block, Issue: now, Targets: targets}
	t.live[id] = r
	return id
}

func (t *refTracer) HomeArrive(id TxnID, now sim.Time) {
	if id == 0 {
		return
	}
	if r := t.live[id]; r != nil && r.span.HomeArrive == 0 {
		r.span.HomeArrive = now
	}
}

func (t *refTracer) DirStart(id TxnID, now sim.Time) {
	if id == 0 {
		return
	}
	if r := t.live[id]; r != nil {
		r.span.DirStart = now
	}
}

func (t *refTracer) Fanout(id TxnID, fan FanKind, now sim.Time) {
	if id == 0 {
		return
	}
	if r := t.live[id]; r != nil {
		r.span.Fan = fan
		r.span.FanoutAt = now
	}
}

func (t *refTracer) TargetAck(id TxnID, target int, sent, acked sim.Time) {
	if id == 0 {
		return
	}
	if r := t.live[id]; r != nil {
		r.span.Targets = append(r.span.Targets, TargetSpan{Target: target, Sent: sent, Acked: acked})
	}
}

func (t *refTracer) Hop(id TxnID, flits int) {
	if id == 0 {
		return
	}
	t.hops++
	t.flits += uint64(flits)
	if r := t.live[id]; r != nil {
		r.span.Hops++
		r.span.Flits += uint64(flits)
	}
}

func (t *refTracer) fold(r *refTxnRec, end sim.Time) {
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
	ba := t.blocks[r.span.Block]
	ba.txns++
	ba.cycles += lat
	t.blocks[r.span.Block] = ba
}

func (t *refTracer) release(proc int, r *refTxnRec) {
	if proc >= 0 && proc < len(t.lastRel) {
		t.lastRel[proc] = ReleaseInfo{
			ID: r.span.ID, Kind: r.span.Kind, Fan: r.span.Fan, Targets: len(r.span.Targets),
		}
	}
}

func (t *refTracer) retain(id TxnID, r *refTxnRec) {
	delete(t.live, id)
	if len(t.spans) < t.spanCap {
		if t.spans == nil {
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
	} else {
		t.droppedSpans++
	}
	t.free = append(t.free, r)
}

func (t *refTracer) End(id TxnID, now sim.Time) {
	if id == 0 {
		return
	}
	r := t.live[id]
	if r == nil {
		return
	}
	r.span.Retired = now
	r.span.End = now
	t.fold(r, now)
	t.release(r.span.Proc, r)
	t.retain(id, r)
}

func (t *refTracer) Retired(id TxnID, now sim.Time) {
	if id == 0 {
		return
	}
	r := t.live[id]
	if r == nil {
		return
	}
	r.span.Retired = now
	t.fold(r, now)
	t.release(r.span.Proc, r)
}

func (t *refTracer) AcksDrained(id TxnID, now sim.Time) {
	if id == 0 {
		return
	}
	r := t.live[id]
	if r == nil {
		return
	}
	r.span.End = now
	if r.span.Retired != 0 && now > r.span.Retired {
		t.ackDrain += uint64(now - r.span.Retired)
	}
	t.release(r.span.Proc, r)
	t.retain(id, r)
}

func (t *refTracer) CacheTouch(proc int, id TxnID) {
	if id == 0 {
		return
	}
	if r := t.live[id]; r != nil {
		t.release(proc, r)
	}
}

func (t *refTracer) LastRelease(proc int) ReleaseInfo {
	if proc < 0 || proc >= len(t.lastRel) {
		return ReleaseInfo{}
	}
	return t.lastRel[proc]
}

func (t *refTracer) AddStall(proc int, cat Category, reason string, from, to sim.Time, by TxnID) {
	if to <= from {
		return
	}
	if proc >= 0 && proc < len(t.agg) {
		t.agg[proc][cat] += uint64(to - from)
	}
	t.stalls = append(t.stalls, StallRec{Proc: proc, Cat: cat, Reason: reason, Start: from, End: to, By: by})
	if len(t.stalls) > t.stallCap {
		t.droppedStalls++
	}
}

func (t *refTracer) AddCompute(proc int, busy sim.Time) {
	if proc < 0 || proc >= len(t.agg) {
		return
	}
	t.agg[proc][CatCompute] += uint64(busy)
}

func (t *refTracer) Snapshot(cycles sim.Time) *BreakdownSnapshot {
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
		Dropped:    DroppedCounts{Spans: t.droppedSpans, Stalls: t.droppedStalls},
	}
	rows := make([]uint64, procs*int(numCategories))
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
	if len(t.blocks) > 0 {
		hot := make([]HotBlock, 0, len(t.blocks))
		for b, a := range t.blocks {
			hot = append(hot, HotBlock{Block: b, Txns: a.txns, Cycles: a.cycles})
		}
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
