package trace

import (
	"bytes"
	"strings"
	"testing"

	"coherencesim/internal/sim"
)

// TestNilTracerIsNoOp: a nil *Tracer is the disabled sink; every method
// must be callable without effect, and Begin must return TxnID 0 so the
// downstream id==0 guards short-circuit too.
func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	if id := tr.Begin(0, TxnRead, 1, 10); id != 0 {
		t.Fatalf("nil Begin returned %d, want 0", id)
	}
	tr.HomeArrive(1, 10)
	tr.DirStart(1, 10)
	tr.Fanout(1, FanInv, 10)
	tr.TargetAck(1, 2, 10, 20)
	tr.Hop(1, 4)
	tr.End(1, 20)
	tr.Retired(1, 20)
	tr.AcksDrained(1, 30)
	tr.CacheTouch(0, 1)
	tr.AddStall(0, CatReadMiss, 10, 20, 1)
	tr.AddCompute(0, 100)
	if tr.LastRelease(0) != (ReleaseInfo{}) {
		t.Fatal("nil LastRelease not zero")
	}
	if tr.Spans() != nil || tr.Stalls() != nil || tr.Procs() != 0 {
		t.Fatal("nil accessors not empty")
	}
	if tr.Snapshot(100) != nil {
		t.Fatal("nil Snapshot not nil")
	}
}

// TestTxnZeroIsNoOp: a live tracer must ignore TxnID 0 (operations on
// untraced paths).
func TestTxnZeroIsNoOp(t *testing.T) {
	tr := NewTracer(2, 8)
	tr.HomeArrive(0, 10)
	tr.Hop(0, 4)
	tr.End(0, 20)
	s := tr.Snapshot(100)
	if s.Latency.Count != 0 || len(s.Txns) != 0 || s.Hops != 0 {
		t.Fatalf("TxnID 0 operations were recorded: %+v", s)
	}
}

// TestTxnLifecycleSnapshot drives one read and one invalidating write
// through the full lifecycle and checks the folded snapshot.
func TestTxnLifecycleSnapshot(t *testing.T) {
	tr := NewTracer(2, 8).StoreRecords()

	// proc 0: read of block 7, issue@10 end@40 (latency 30).
	rd := tr.Begin(0, TxnRead, 7, 10)
	tr.HomeArrive(rd, 14)
	tr.HomeArrive(rd, 18) // retry re-entry must not overwrite
	tr.DirStart(rd, 20)
	tr.Hop(rd, 2)
	tr.Hop(rd, 6)
	tr.End(rd, 40)

	// proc 1: write of block 7 with a 2-target invalidation fan-out,
	// issue@50 end@90 (latency 40).
	wr := tr.Begin(1, TxnWrite, 7, 50)
	tr.HomeArrive(wr, 55)
	tr.DirStart(wr, 58)
	tr.Fanout(wr, FanInv, 60)
	tr.TargetAck(wr, 0, 60, 75)
	tr.TargetAck(wr, 1, 60, 80)
	tr.End(wr, 90)

	tr.AddCompute(0, 25)
	tr.AddStall(0, CatReadMiss, 10, 40, rd)
	tr.AddStall(1, CatInvalidationWait, 50, 90, wr)

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("retained %d spans, want 2", len(spans))
	}
	if spans[0].HomeArrive != 14 {
		t.Errorf("read HomeArrive %d, want first arrival 14", spans[0].HomeArrive)
	}
	if spans[0].Hops != 2 || spans[0].Flits != 8 {
		t.Errorf("read hops/flits %d/%d, want 2/8", spans[0].Hops, spans[0].Flits)
	}
	if got := spans[1]; got.Fan != FanInv || len(got.Targets) != 2 || got.Targets[1].Acked != 80 {
		t.Errorf("write fan-out span wrong: %+v", got)
	}

	s := tr.Snapshot(100)
	if s.Latency.Count != 2 || s.Latency.Sum != 70 {
		t.Errorf("latency count/sum %d/%d, want 2/70", s.Latency.Count, s.Latency.Sum)
	}
	if len(s.Txns) != 2 || s.Txns[0].Kind != "read" || s.Txns[1].Kind != "write-inv" {
		t.Errorf("per-kind stats wrong: %+v", s.Txns)
	}
	if s.PerProc[0][CatCompute] != 25 || s.PerProc[0][CatReadMiss] != 30 {
		t.Errorf("proc 0 row wrong: %v", s.PerProc[0])
	}
	if s.PerProc[1][CatInvalidationWait] != 40 {
		t.Errorf("proc 1 invalidation-wait %d, want 40", s.PerProc[1][CatInvalidationWait])
	}
	// Idle = cycles - attributed: proc 0 has 100-55=45, proc 1 has 60.
	if s.PerProc[0][CatIdle] != 45 || s.PerProc[1][CatIdle] != 60 {
		t.Errorf("idle wrong: %d/%d, want 45/60", s.PerProc[0][CatIdle], s.PerProc[1][CatIdle])
	}
	if len(s.HotBlocks) != 1 || s.HotBlocks[0].Block != 7 || s.HotBlocks[0].Txns != 2 || s.HotBlocks[0].Cycles != 70 {
		t.Errorf("hot blocks wrong: %+v", s.HotBlocks)
	}
}

// TestRetireThenDrain: the update-family split — Retired folds the
// requester-visible latency, AcksDrained completes the span and charges
// the drain window.
func TestRetireThenDrain(t *testing.T) {
	tr := NewTracer(1, 8).StoreRecords()
	id := tr.Begin(0, TxnWriteThrough, 3, 100)
	tr.Fanout(id, FanUpd, 105)
	tr.Retired(id, 110)
	if rel := tr.LastRelease(0); rel.ID != id {
		t.Fatalf("Retired did not mark the releaser: %+v", rel)
	}
	tr.TargetAck(id, 0, 105, 130)
	tr.AcksDrained(id, 130)
	s := tr.Snapshot(200)
	if s.Latency.Count != 1 || s.Latency.Sum != 10 {
		t.Errorf("retired latency %d/%d, want 1/10 (requester-visible)", s.Latency.Count, s.Latency.Sum)
	}
	if s.AckDrain != 20 {
		t.Errorf("ack drain %d, want 20", s.AckDrain)
	}
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Retired != 110 || spans[0].End != 130 {
		t.Errorf("span retire/end wrong: %+v", spans)
	}
}

// TestSpanRetentionCap: the aggregate breakdown must keep counting after
// the retained-span buffer fills; dropped counts are reported, and read
// the same whether or not the tracer stores the records.
func TestSpanRetentionCap(t *testing.T) {
	for _, tr := range []*Tracer{NewTracer(1, 2).StoreRecords(), NewTracer(1, 2)} {
		for i := 0; i < 5; i++ {
			id := tr.Begin(0, TxnRead, uint32(i), sim.Time(i*10))
			tr.End(id, sim.Time(i*10+4))
		}
		for i := 0; i < 9; i++ {
			tr.AddStall(0, CatReadMiss, sim.Time(i), sim.Time(i+1), 0)
		}
		s := tr.Snapshot(100)
		if want := map[bool]int{true: 2, false: 0}[tr.store]; len(tr.Spans()) != want || len(tr.Stalls()) != 4*want {
			t.Errorf("store %v: retained %d spans and %d stalls, want %d and %d",
				tr.store, len(tr.Spans()), len(tr.Stalls()), want, 4*want)
		}
		if s.Dropped != (DroppedCounts{Spans: 3, Stalls: 1}) {
			t.Errorf("store %v: dropped %+v, want 3 spans and 1 stall", tr.store, s.Dropped)
		}
		if s.Latency.Count != 5 {
			t.Errorf("store %v: aggregate covered %d txns, want all 5", tr.store, s.Latency.Count)
		}
	}
}

// TestTxnChromeTraceRefusesNonStoringTracer: a tracer without storage
// has nothing to export, and the writer says so instead of writing an
// empty timeline.
func TestTxnChromeTraceRefusesNonStoringTracer(t *testing.T) {
	tr := NewTracer(2, 8)
	id := tr.Begin(0, TxnRead, 1, 0)
	tr.End(id, 16)
	var buf bytes.Buffer
	if err := WriteTxnChromeTrace(&buf, tr, "WI"); err == nil || buf.Len() != 0 {
		t.Fatalf("non-storing tracer: err %v, %d bytes written; want an error and nothing", err, buf.Len())
	}
	if err := WriteTxnChromeTrace(&buf, nil, "WI"); err == nil {
		t.Fatal("nil tracer: no error")
	}
}

// TestLiveRingGrowsBehindLongLivedTxn: a transaction that stays live
// while the ring wraps forces Begin to double the ring, and a late hook
// on an ID whose slot has since been reused by a later transaction is a
// no-op for both.
func TestLiveRingGrowsBehindLongLivedTxn(t *testing.T) {
	tr := NewTracer(2, 0)
	size := len(tr.live)
	upd := tr.Begin(0, TxnWriteThrough, 0, 1)
	reused := tr.Begin(1, TxnRead, 1, 2)
	tr.End(reused, 3)
	for i := 0; i < size; i++ { // ID size+1 finds upd in its slot
		tr.End(tr.Begin(1, TxnRead, 1, 4), 5)
	}
	if len(tr.live) != 2*size {
		t.Fatalf("ring has %d slots behind one long-lived txn, want %d", len(tr.live), 2*size)
	}
	tr.Retired(upd, 600)
	tr.AcksDrained(upd, 620)
	for tr.nextID+1 != reused+TxnID(len(tr.live)) {
		tr.End(tr.Begin(1, TxnRead, 1, 630), 640)
	}
	late := tr.Begin(1, TxnRead, 1, 650)
	if tr.slot(late) != tr.slot(reused) || len(tr.live) != 2*size {
		t.Fatalf("txn %d lands in slot %d of %d, not retired txn %d's slot %d",
			late, tr.slot(late), len(tr.live), reused, tr.slot(reused))
	}
	tr.Hop(reused, 7)
	tr.End(reused, 900)
	if r := tr.rec(late); r.span.Hops != 0 || tr.hops != 1 || tr.nlive != 1 {
		t.Fatalf("late hooks on retired txn %d touched live txn %d (%d hops, %d live)", reused, late, r.span.Hops, tr.nlive)
	}
	tr.End(late, 660)
	if s := tr.Snapshot(700); tr.nlive != 0 || s.AckDrain != 20 || s.Latency.Count != uint64(late) {
		t.Fatalf("not every txn completed once: %d live, %+v", tr.nlive, s)
	}
}

// TestBucketEdgesRoundTrip: BucketIndex must invert BucketEdges exactly
// (the service's Prometheus fold depends on it).
func TestBucketEdgesRoundTrip(t *testing.T) {
	edges := BucketEdges()
	if len(edges) != LatencyBucketCount {
		t.Fatalf("%d edges, want %d", len(edges), LatencyBucketCount)
	}
	for i, le := range edges {
		if got := BucketIndex(le); got != i {
			t.Errorf("edge %d (le=%d) maps to bucket %d", i, le, got)
		}
	}
	if BucketIndex(3) != -1 || BucketIndex(12) != -1 {
		t.Error("non-edge values must map to -1")
	}
}

// TestBreakdownReportRendering: collector report carries the shared
// envelope and renders a table row per run.
func TestBreakdownReportRendering(t *testing.T) {
	tr := NewTracer(1, 8)
	id := tr.Begin(0, TxnRead, 1, 0)
	tr.End(id, 16)
	tr.AddStall(0, CatReadMiss, 0, 16, id)

	coll := NewBreakdownCollector()
	coll.Add("runA", tr.Snapshot(32))
	coll.Add("skipped", nil) // nil snapshots are ignored
	rep := coll.Report()
	if rep.Schema != TraceSchemaVersion || rep.Kind != "breakdown" {
		t.Fatalf("report envelope wrong: %+v", rep.Envelope)
	}
	if len(rep.Runs) != 1 {
		t.Fatalf("collector kept %d runs, want 1", len(rep.Runs))
	}
	tbl := rep.Table()
	if !strings.Contains(tbl, "runA") || !strings.Contains(tbl, "read-miss") {
		t.Errorf("table missing run label or category:\n%s", tbl)
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
}

// TestNilCollector: a nil collector is the disabled path the sweeps
// thread unconditionally.
func TestNilCollector(t *testing.T) {
	var c *BreakdownCollector
	if c.Enabled() {
		t.Fatal("nil collector claims enabled")
	}
	c.Add("x", &BreakdownSnapshot{}) // must not panic
}

// TestTxnChromeTraceFlows: the Perfetto export links each attributed
// stall back to its releasing transaction with a flow event pair.
func TestTxnChromeTraceFlows(t *testing.T) {
	tr := NewTracer(2, 8).StoreRecords()
	id := tr.Begin(0, TxnWrite, 5, 10)
	tr.Fanout(id, FanInv, 15)
	tr.TargetAck(id, 1, 15, 25)
	tr.End(id, 30)
	tr.AddStall(1, CatInvalidationWait, 12, 30, id)

	var buf bytes.Buffer
	if err := WriteTxnChromeTrace(&buf, tr, "WI"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"ph":"X"`, `"ph":"s"`, `"ph":"f"`, `"txn-1"`, "invalidation-wait", "WI"} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %s", want)
		}
	}
}
