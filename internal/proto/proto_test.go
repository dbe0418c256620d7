package proto

import (
	"testing"

	"coherencesim/internal/cache"
	"coherencesim/internal/classify"
	"coherencesim/internal/sim"
)

func TestProtocolStrings(t *testing.T) {
	if WI.String() != "WI" || PU.Short() != "u" || CU.Short() != "c" {
		t.Error("protocol strings wrong")
	}
	if Protocol(9).String() == "" || Protocol(9).Short() != "?" {
		t.Error("unknown protocol strings wrong")
	}
}

func TestParseProtocolInvertsString(t *testing.T) {
	for _, pr := range allProtocols() {
		if got, err := ParseProtocol(pr.String()); err != nil || got != pr {
			t.Errorf("ParseProtocol(%q) = %v, %v", pr.String(), got, err)
		}
	}
	for _, bad := range []string{"", "wi", "MESI", Protocol(9).String()} {
		if _, err := ParseProtocol(bad); err == nil {
			t.Errorf("ParseProtocol(%q) accepted", bad)
		}
	}
}

func TestReadReturnsMemoryValueAllProtocols(t *testing.T) {
	for _, pr := range allProtocols() {
		ts := newTest(t, pr, 4)
		// Initialize memory word at addr 64 (block 1, home = node 1).
		ts.s.Memory(ts.s.HomeOf(1)).Poke(1, 0, 77)
		var v uint32
		ts.script().read(2, 64, &v).run()
		if v != 77 {
			t.Errorf("%v: read = %d, want 77", pr, v)
		}
		if ts.cl.Misses()[classify.MissCold] != 1 {
			t.Errorf("%v: cold misses %v", pr, ts.cl.Misses())
		}
	}
}

func TestSecondReadHitsAllProtocols(t *testing.T) {
	for _, pr := range allProtocols() {
		ts := newTest(t, pr, 4)
		var v1, v2 uint32
		ts.script().read(2, 64, &v1).read(2, 64, &v2).run()
		if m := ts.cl.Misses().TotalMisses(); m != 1 {
			t.Errorf("%v: misses = %d, want 1", pr, m)
		}
	}
}

func TestWriteThenReadOtherProcAllProtocols(t *testing.T) {
	for _, pr := range allProtocols() {
		ts := newTest(t, pr, 4)
		var v uint32
		ts.script().write(0, 128, 99).read(1, 128, &v).run()
		if v != 99 {
			t.Errorf("%v: read after remote write = %d, want 99", pr, v)
		}
	}
}

func TestWIInvalidationOnWrite(t *testing.T) {
	ts := newTest(t, WI, 4)
	var before, after uint32
	ts.script().
		read(1, 64, &before). // P1 caches block
		write(0, 64, 42).     // P0's write must invalidate P1
		read(1, 64, &after).  // true-sharing miss, fresh value
		run()
	if before != 0 || after != 42 {
		t.Fatalf("values %d, %d", before, after)
	}
	m := ts.cl.Misses()
	if m[classify.MissTrue] != 1 {
		t.Fatalf("miss counts %v, want 1 true-sharing", m)
	}
	if ts.s.Counters().Invals != 1 {
		t.Fatalf("invals = %d", ts.s.Counters().Invals)
	}
}

func TestWIFalseSharing(t *testing.T) {
	ts := newTest(t, WI, 4)
	var x uint32
	ts.script().
		read(1, 64, nil). // P1 caches block 1 (reads word 0)
		write(0, 68, 5).  // P0 writes word 1 of same block
		read(1, 64, &x).  // P1 re-reads word 0: false sharing
		run()
	if ts.cl.Misses()[classify.MissFalse] != 1 {
		t.Fatalf("miss counts %v, want 1 false-sharing", ts.cl.Misses())
	}
	_ = x
}

func TestWIUpgradeCounted(t *testing.T) {
	ts := newTest(t, WI, 4)
	ts.script().
		read(0, 64, nil). // P0 caches Shared
		write(0, 64, 1).  // upgrade
		run()
	if ts.s.Counters().Upgrades != 1 {
		t.Fatalf("upgrades = %d", ts.s.Counters().Upgrades)
	}
	if ts.cl.Misses()[classify.MissUpgrade] != 1 {
		t.Fatalf("classifier upgrade missing: %v", ts.cl.Misses())
	}
	// The line must now be exclusive and a second write purely local.
	ctrBefore := ts.s.Counters()
	ts2 := ts.script().write(0, 64, 2)
	ts2.run()
	if ts.s.Counters().Upgrades != ctrBefore.Upgrades {
		t.Fatal("second write re-upgraded")
	}
}

func TestWIDirtyFetchOnRead(t *testing.T) {
	ts := newTest(t, WI, 4)
	var v uint32
	ts.script().
		write(0, 64, 10). // P0 exclusive dirty
		write(0, 68, 11). // still local
		read(1, 68, &v).  // P1 fetches via home; owner demoted to Shared
		run()
	if v != 11 {
		t.Fatalf("fetched %d, want 11", v)
	}
	ln0 := ts.s.Cache(0).Lookup(1)
	if ln0 == nil || ln0.State != cache.Shared {
		t.Fatalf("owner line after fetch: %+v", ln0)
	}
	// Memory must have been refreshed by the sharing write-back.
	if got := ts.s.Memory(ts.s.HomeOf(1)).Peek(1, 0); got != 10 {
		t.Fatalf("memory word0 = %d, want 10", got)
	}
}

func TestAtomicFetchAddAllProtocols(t *testing.T) {
	for _, pr := range allProtocols() {
		ts := newTest(t, pr, 4)
		var o1, o2, o3 uint32
		ts.script().
			atomic(0, 64, FetchAdd, 1, 0, &o1).
			atomic(1, 64, FetchAdd, 1, 0, &o2).
			atomic(2, 64, FetchAdd, 1, 0, &o3).
			run()
		if o1 != 0 || o2 != 1 || o3 != 2 {
			t.Errorf("%v: fetch-add olds %d,%d,%d", pr, o1, o2, o3)
		}
	}
}

func TestAtomicFetchStoreAndCAS(t *testing.T) {
	for _, pr := range allProtocols() {
		ts := newTest(t, pr, 2)
		var old, casOld, casOld2, v uint32
		ts.script().
			atomic(0, 64, FetchStore, 5, 0, &old).
			atomic(1, 64, CompareSwap, 5, 9, &casOld).  // succeeds
			atomic(1, 64, CompareSwap, 5, 7, &casOld2). // fails (now 9)
			read(0, 64, &v).
			run()
		if old != 0 || casOld != 5 || casOld2 != 9 || v != 9 {
			t.Errorf("%v: fs/cas olds %d,%d,%d final %d", pr, old, casOld, casOld2, v)
		}
	}
}

func TestPUUpdatePropagation(t *testing.T) {
	ts := newTest(t, PU, 4)
	var v uint32
	ts.script().
		read(1, 64, nil). // P1 caches
		read(2, 64, nil). // P2 caches
		write(0, 64, 33). // write-through; updates to P1, P2
		run()
	for _, q := range []int{1, 2} {
		ln := ts.s.Cache(q).Lookup(1)
		if ln == nil || ln.Data[0] != 33 {
			t.Fatalf("P%d copy not updated: %+v", q, ln)
		}
	}
	if ts.s.Counters().UpdatesSent != 2 {
		t.Fatalf("updates sent = %d, want 2", ts.s.Counters().UpdatesSent)
	}
	// P1 references the updated word -> useful update.
	ts.script().read(1, 64, &v).run()
	if v != 33 {
		t.Fatalf("P1 read %d", v)
	}
	if u := ts.cl.Updates(); u[classify.UpdTrue] != 1 {
		t.Fatalf("updates %v, want 1 useful", u)
	}
}

func TestPURetention(t *testing.T) {
	ts := newTest(t, PU, 4)
	ts.script().
		read(0, 64, nil).
		write(0, 64, 1). // sole sharer: retention granted on reply
		write(0, 64, 2). // now local
		write(0, 68, 3). // still local
		run()
	c := ts.s.Counters()
	if c.Retentions != 1 {
		t.Fatalf("retentions = %d, want 1", c.Retentions)
	}
	if c.WriteThrough != 1 {
		t.Fatalf("write-throughs = %d, want 1 (rest retained)", c.WriteThrough)
	}
	ln := ts.s.Cache(0).Lookup(1)
	if ln == nil || ln.State != cache.Exclusive || !ln.Dirty {
		t.Fatalf("line after retention: %+v", ln)
	}
}

func TestPURetainedBlockFetchedByReader(t *testing.T) {
	ts := newTest(t, PU, 4)
	var v uint32
	ts.script().
		read(0, 64, nil).
		write(0, 64, 1).
		write(0, 64, 2). // local (retained)
		read(1, 64, &v). // must demote P0 and see 2
		run()
	if v != 2 {
		t.Fatalf("reader got %d, want 2", v)
	}
	ln := ts.s.Cache(0).Lookup(1)
	if ln == nil || ln.State != cache.Shared {
		t.Fatalf("owner after demote: %+v", ln)
	}
	// Subsequent write by P0 is write-through again, updating P1.
	ts.script().write(0, 64, 3).run()
	if ts.s.Cache(1).Lookup(1).Data[0] != 3 {
		t.Fatal("post-demote write did not update reader")
	}
}

func TestPURetainedBlockWrittenByOther(t *testing.T) {
	ts := newTest(t, PU, 4)
	var v uint32
	ts.script().
		read(0, 64, nil).
		write(0, 64, 1). // P0 retains
		write(1, 64, 7). // P1 write-through must demote P0 first
		read(0, 64, &v).
		run()
	if v != 7 {
		t.Fatalf("P0 sees %d, want 7", v)
	}
}

func TestCUDropAfterThreshold(t *testing.T) {
	ts := newTest(t, CU, 4)
	ts.script().
		read(1, 64, nil). // P1 caches
		write(0, 64, 1).  // counter 1
		write(0, 64, 2).  // counter 2
		write(0, 64, 3).  // counter 3
		write(0, 64, 4).  // counter 4 -> drop
		run()
	if ts.s.Cache(1).Present(1) {
		t.Fatal("P1 copy not dropped at threshold")
	}
	c := ts.s.Counters()
	if c.DropNotices != 1 {
		t.Fatalf("drop notices = %d", c.DropNotices)
	}
	u := ts.cl.Updates()
	if u[classify.UpdDrop] != 1 {
		t.Fatalf("updates %v, want 1 drop", u)
	}
	if u[classify.UpdProliferation] != 3 {
		t.Fatalf("updates %v, want 3 proliferation", u)
	}
	// Further writes by P0 generate no more updates to P1.
	before := ts.s.Counters().UpdatesSent
	ts.script().write(0, 64, 5).run()
	if ts.s.Counters().UpdatesSent != before {
		t.Fatal("updates still sent after drop notice")
	}
	// P1's next read is a drop miss.
	var v uint32
	ts.script().read(1, 64, &v).run()
	if v != 5 {
		t.Fatalf("drop-miss read %d, want 5", v)
	}
	if ts.cl.Misses()[classify.MissDrop] != 1 {
		t.Fatalf("misses %v, want 1 drop miss", ts.cl.Misses())
	}
}

func TestCUReferenceResetsCounter(t *testing.T) {
	ts := newTest(t, CU, 4)
	var v uint32
	ts.script().
		read(1, 64, nil).
		write(0, 64, 1).
		write(0, 64, 2).
		write(0, 64, 3).
		read(1, 64, &v). // resets counter
		write(0, 64, 4).
		write(0, 64, 5).
		write(0, 64, 6).
		run()
	if !ts.s.Cache(1).Present(1) {
		t.Fatal("copy dropped despite reference reset")
	}
	if v != 3 {
		t.Fatalf("P1 read %d, want 3", v)
	}
}

func TestFlushCleanRemovesSharer(t *testing.T) {
	ts := newTest(t, PU, 4)
	ts.script().
		read(1, 64, nil).
		flush(1, 64).
		write(0, 64, 9). // no sharer left: no update messages
		run()
	if ts.s.Counters().UpdatesSent != 0 {
		t.Fatalf("updates sent = %d after flush", ts.s.Counters().UpdatesSent)
	}
	if ts.s.Counters().Flushes != 1 {
		t.Fatalf("flushes = %d", ts.s.Counters().Flushes)
	}
}

func TestFlushDirtyWritesBack(t *testing.T) {
	ts := newTest(t, WI, 4)
	var v uint32
	ts.script().
		write(0, 64, 123). // exclusive dirty
		flush(0, 64).
		read(1, 64, &v).
		run()
	if v != 123 {
		t.Fatalf("read after dirty flush = %d, want 123", v)
	}
	if ts.s.Counters().Writebacks != 1 {
		t.Fatalf("writebacks = %d", ts.s.Counters().Writebacks)
	}
}

func TestFlushAbsentBlockIsNoop(t *testing.T) {
	ts := newTest(t, WI, 2)
	ts.script().flush(0, 64).run()
	if ts.s.Counters().Flushes != 0 {
		t.Fatal("flush of absent block counted")
	}
}

func TestOutstandingDrainsAfterAcks(t *testing.T) {
	ts := newTest(t, PU, 4)
	drained := false
	ts.script().
		read(1, 64, nil).
		read(2, 64, nil).
		add(func(done func()) {
			ts.s.Write(0, 64, 1, func() {
				// Retired (home reply) but sharer acks may be pending.
				ts.s.WhenDrained(0, func() {
					drained = true
					done()
				})
			})
		}).
		run()
	if !drained {
		t.Fatal("WhenDrained never fired")
	}
	if ts.s.procs[0].outstanding != 0 {
		t.Fatalf("outstanding = %d", ts.s.procs[0].outstanding)
	}
}

func TestEvictionWritebackPreservesData(t *testing.T) {
	// Tiny cache (2 lines) so blocks 0 and 2 conflict.
	ts := newTest(t, WI, 2, withCacheBytes(2*cache.BlockBytes))
	s, cl := ts.s, ts.cl
	var v uint32
	ts.script().
		write(0, 0, 55).                  // block 0 dirty
		read(0, 2*cache.BlockBytes, nil). // block 2 conflicts: evicts block 0
		read(0, 0, &v).                   // eviction miss, data via memory
		run()
	if v != 55 {
		t.Fatalf("post-eviction read = %d, want 55", v)
	}
	if cl.Misses()[classify.MissEviction] != 1 {
		t.Fatalf("misses %v, want 1 eviction", cl.Misses())
	}
	if s.Counters().Writebacks != 1 {
		t.Fatalf("writebacks = %d", s.Counters().Writebacks)
	}
}

func TestWatcherWakesOnRemoteWrite(t *testing.T) {
	for _, pr := range allProtocols() {
		ts := newTest(t, pr, 2)
		var observed uint32
		fired := false
		ts.script().
			read(1, 64, nil).
			add(func(done func()) {
				ts.s.Cache(1).Watch(1, func() { fired = true })
				done()
			}).
			write(0, 64, 8).
			read(1, 64, &observed).
			run()
		if !fired {
			t.Errorf("%v: watcher did not fire on remote write", pr)
		}
		if observed != 8 {
			t.Errorf("%v: observed %d, want 8", pr, observed)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	runOnce := func() (sim.Time, Counters, classify.MissCounts, classify.UpdateCounts) {
		ts := newTest(t, CU, 8)
		sc := ts.script()
		for i := 0; i < 8; i++ {
			sc.read(i, 64, nil)
		}
		for k := 0; k < 6; k++ {
			sc.write(k%8, 64, uint32(k))
			sc.atomic((k+3)%8, 128, FetchAdd, 1, 0, nil)
		}
		sc.run()
		return ts.e.Now(), ts.s.Counters(), ts.cl.Misses(), ts.cl.Updates()
	}
	t1, c1, m1, u1 := runOnce()
	t2, c2, m2, u2 := runOnce()
	if t1 != t2 || c1 != c2 || m1 != m2 || u1 != u2 {
		t.Fatalf("nondeterministic: %v vs %v / %+v vs %+v", t1, t2, c1, c2)
	}
}

func TestConfigValidation(t *testing.T) {
	e := sim.NewEngine()
	cl := classify.New(2)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("missing home mapping did not panic")
			}
		}()
		NewSystem(e, 2, DefaultConfig(WI), cl, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("65 nodes did not panic")
			}
		}()
		NewSystem(e, 65, DefaultConfig(WI), cl, func(uint32) int { return 0 })
	}()
}
