package proto

import (
	"testing"

	"coherencesim/internal/trace"
)

// These tests pin the owner recall (request.recall) on every caller:
// each shape is a steady-state loop on 4 nodes whose last operation
// finds block 0 held exclusively by another node and recalls it — from
// the owner's cache, or from its write-back still in flight.

// recallShape is one caller of the recall and what its transaction is
// charged for it.
type recallShape struct {
	name    string
	pr      Protocol
	retains bool // the loop's first write is granted retention each time
	iter    func(ts *testSystem)
	kind    trace.TxnKind // the recalling transaction's kind
	hops    int
	flits   uint64
}

// recallShapes returns the six shapes. Every operation runs to
// quiescence; the completion callbacks are built once, so a loop
// allocates only what the protocol does.
func recallShapes() []recallShape {
	v := uint32(0)
	retire, rdDone, atDone := func() {}, func(uint32) {}, func(uint32) {}
	flush := func(ts *testSystem, p int) { ts.s.FlushBlock(p, 0); ts.e.Run() }
	write := func(ts *testSystem, p int) { v++; ts.s.Write(p, 0, v, retire); ts.e.Run() }
	read := func(ts *testSystem, p int) { ts.s.Read(p, 0, rdDone); ts.e.Run() }
	// Node 2 drops its copy and node 1 writes twice: under WI node 1
	// then owns the block, under PU it retains it.
	ownedBy1 := func(ts *testSystem) { flush(ts, 2); write(ts, 1); write(ts, 1) }
	// Node 1 flushes at the instant node 2's read leaves: the recall
	// reaches node 1 with its write-back in flight, takes the data from
	// the write-back and cancels it.
	racesFlush := func(ts *testSystem) {
		ownedBy1(ts)
		ts.s.Read(2, 0, rdDone)
		ts.s.FlushBlock(1, 0)
		ts.e.Run()
	}
	return []recallShape{
		{name: "wi-read", pr: WI, kind: trace.TxnRead, hops: 4, flits: 80,
			iter: func(ts *testSystem) { ownedBy1(ts); read(ts, 2) }},
		{name: "wi-write", pr: WI, kind: trace.TxnWrite, hops: 4, flits: 80,
			iter: func(ts *testSystem) { write(ts, 1); write(ts, 2) }},
		{name: "pu-read", pr: PU, retains: true, kind: trace.TxnRead, hops: 4, flits: 80,
			iter: func(ts *testSystem) { ownedBy1(ts); read(ts, 2) }},
		{name: "wi-read-races-flush", pr: WI, kind: trace.TxnRead, hops: 4, flits: 80, iter: racesFlush},
		{name: "pu-read-races-flush", pr: PU, retains: true, kind: trace.TxnRead, hops: 4, flits: 80, iter: racesFlush},
		// The demotion's own two hops are charged to no transaction
		// (ROADMAP item 7): charged, this span reads 6 hops / 96 flits.
		{name: "pu-atomic-demote", pr: PU, retains: true, kind: trace.TxnAtomic, hops: 4, flits: 56,
			iter: func(ts *testSystem) {
				ownedBy1(ts)
				ts.s.Atomic(2, 0, FetchAdd, 1, 0, atDone)
				ts.e.Run()
			}},
	}
}

func TestRecallZeroAllocs(t *testing.T) {
	for _, sh := range recallShapes() {
		t.Run(sh.name, func(t *testing.T) {
			ts := newTest(t, sh.pr, 4)
			iter := func() { sh.iter(ts) }
			for i := 0; i < 3; i++ {
				iter()
			}
			before := ts.s.Counters().Retentions
			if avg := testing.AllocsPerRun(100, iter); avg != 0 {
				t.Fatalf("%s allocates %.2f objects/op, want 0", sh.name, avg)
			}
			want := uint64(0)
			if sh.retains {
				want = 101
			}
			if got := ts.s.Counters().Retentions - before; got != want {
				t.Fatalf("%d retentions over 101 iterations, want %d", got, want)
			}
			if errs := ts.s.CheckCoherence(); len(errs) != 0 {
				t.Fatalf("incoherent: %v", errs)
			}
		})
	}
}

func TestRecallHopsCharged(t *testing.T) {
	for _, sh := range recallShapes() {
		t.Run(sh.name, func(t *testing.T) {
			tr := trace.NewTracer(4, 0).StoreRecords()
			ts := newTest(t, sh.pr, 4, func(c *Config) { c.Txn = tr })
			sh.iter(ts)
			// The recalling transaction's span: the last of its kind (a
			// racing write-back's span may end after it).
			spans := tr.Spans()
			i := len(spans) - 1
			for i >= 0 && spans[i].Kind != sh.kind {
				i--
			}
			if i < 0 {
				t.Fatalf("no %v span recorded", sh.kind)
			}
			if last := spans[i]; last.Hops != sh.hops || last.Flits != sh.flits {
				t.Fatalf("last %v span: %d hops, %d flits; want %d hops, %d flits",
					sh.kind, last.Hops, last.Flits, sh.hops, sh.flits)
			}
		})
	}
}
