package proto

import (
	"slices"
	"testing"

	"coherencesim/internal/cache"
)

// Edge-case coverage for the update-based protocols.

func TestStrayUpdateAfterDropNotice(t *testing.T) {
	// A CU node drops a block; updates already in flight (or racing the
	// drop notice) arrive at a node with no copy and must be acked and
	// classified as stray (proliferation), not crash.
	ts := newTest(t, CU, 4)
	sc := ts.script().
		read(1, 64, nil)
	// Four writes race: the fourth triggers the drop at P1; issue a
	// fifth immediately after in the same script step chain.
	for i := 0; i < 5; i++ {
		sc.write(0, 64, uint32(i))
	}
	sc.run()
	if ts.s.Cache(1).Present(1) {
		t.Fatal("P1 should have dropped the block")
	}
	if errs := ts.s.CheckCoherence(); len(errs) != 0 {
		t.Fatalf("incoherent after drop: %v", errs)
	}
}

func TestAtomicInstallsRequesterAsSharer(t *testing.T) {
	for _, pr := range []Protocol{PU, CU} {
		ts := newTest(t, pr, 4)
		ts.script().
			atomic(2, 64, FetchAdd, 1, 0, nil).
			run()
		ln := ts.s.Cache(2).Lookup(1)
		if ln == nil || ln.State != cache.Shared {
			t.Fatalf("%v: atomic requester not installed as sharer: %+v", pr, ln)
		}
		// A second atomic by another processor must update this copy.
		ts.script().atomic(3, 64, FetchAdd, 1, 0, nil).run()
		if got := ts.s.Cache(2).Lookup(1).Data[0]; got != 2 {
			t.Fatalf("%v: sharer copy = %d, want 2", pr, got)
		}
		if ts.s.Counters().UpdatesSent == 0 {
			t.Fatalf("%v: no updates sent to the atomic's sharers", pr)
		}
	}
}

func TestAtomicOnRetainedBlockDemotesOwner(t *testing.T) {
	ts := newTest(t, PU, 4)
	var old uint32
	ts.script().
		read(0, 64, nil).
		write(0, 64, 5). // retention granted
		atomic(1, 64, FetchAdd, 1, 0, &old).
		run()
	if old != 5 {
		t.Fatalf("atomic old = %d, want the retained value 5", old)
	}
	// The atomic must have demoted P0 and operated on the value 5.
	ln := ts.s.Cache(0).Lookup(1)
	if ln == nil || ln.State != cache.Shared {
		t.Fatalf("owner not demoted: %+v", ln)
	}
	if got := ts.s.Memory(ts.s.HomeOf(1)).Peek(1, 0); got != 6 {
		t.Fatalf("memory = %d, want 6", got)
	}
}

func TestRetentionDisabled(t *testing.T) {
	ts := newTest(t, PU, 4, withoutRetention())
	s := ts.s
	ts.script().
		read(0, 64, nil).
		write(0, 64, 1).
		write(0, 64, 2).
		write(0, 64, 3).
		run()
	if s.Counters().Retentions != 0 {
		t.Fatal("retention granted despite DisableRetention")
	}
	if s.Counters().WriteThrough != 3 {
		t.Fatalf("write-throughs = %d, want 3", s.Counters().WriteThrough)
	}
}

func TestCUThresholdConfigurable(t *testing.T) {
	run := func(threshold uint8) bool {
		ts := newTest(t, CU, 4, withCUThreshold(threshold))
		s := ts.s
		sc := ts.script().read(1, 64, nil)
		for i := 0; i < 2; i++ {
			sc.write(0, 64, uint32(i))
		}
		sc.run()
		return s.Cache(1).Present(1)
	}
	if run(1) {
		t.Error("threshold 1: copy survived an update")
	}
	if !run(8) {
		t.Error("threshold 8: copy dropped after only 2 updates")
	}
}

func TestAckBeforeReplyCompletes(t *testing.T) {
	// An update-protocol operation must finish — outstanding back to 0,
	// the op back in its pool — in either arrival order of its
	// reply and its acks; drive the accounting directly.
	s := newTest(t, PU, 2).s
	start := func(expected int) *updOp {
		op := s.newUpdOp(0, 0, 0, access{})
		op.retire = func() {}
		s.addOutstanding(0, 1)
		op.unacked = expected // as the home's multicast records it
		return op
	}
	recycled := func(op *updOp) bool { return slices.Contains(s.updOps.free, op) }
	op := start(2)
	op.ack() // acks first
	op.ack()
	if s.procs[0].outstanding != 1 || recycled(op) {
		t.Fatal("finished before the reply")
	}
	op.reply() // then the reply
	if s.procs[0].outstanding != 0 {
		t.Fatalf("outstanding = %d after acks+reply", s.procs[0].outstanding)
	}
	if !recycled(op) {
		t.Fatal("op not back in its pool after acks+reply")
	}
	// And in reply-first order.
	op2 := start(1)
	op2.reply()
	if s.procs[0].outstanding != 1 || recycled(op2) {
		t.Fatal("finished before the ack")
	}
	op2.ack()
	if s.procs[0].outstanding != 0 || !recycled(op2) {
		t.Fatal("reply-then-ack order broken")
	}
}

func TestZeroAckWriteCompletesImmediately(t *testing.T) {
	ts := newTest(t, PU, 2)
	done := false
	ts.script().
		add(func(next func()) {
			ts.s.Write(0, 64, 1, func() {
				ts.s.WhenDrained(0, func() {
					done = true
					next()
				})
			})
		}).
		run()
	if !done {
		t.Fatal("no-sharer write never drained")
	}
}

func TestWriteAllocateFetchesBlock(t *testing.T) {
	// Under PU/CU a write to an uncached block installs it (write
	// allocate) and then writes through.
	for _, pr := range []Protocol{PU, CU} {
		ts := newTest(t, pr, 4)
		ts.s.Memory(ts.s.HomeOf(1)).Poke(1, 3, 333) // pre-existing word
		ts.script().write(2, 64, 9).run()
		ln := ts.s.Cache(2).Lookup(1)
		if ln == nil {
			t.Fatalf("%v: write did not allocate", pr)
		}
		if ln.Data[0] != 9 || ln.Data[3] != 333 {
			t.Fatalf("%v: allocated line wrong: %v", pr, ln.Data[:4])
		}
		if ts.cl.Misses().TotalMisses() != 1 {
			t.Fatalf("%v: write miss not classified", pr)
		}
	}
}

func TestWIOwnerFlushServesPendingWriteback(t *testing.T) {
	// Owner flushes a dirty block; before the write-back reaches the
	// home, another node reads: the fetch must be served from the
	// pending write-back buffer.
	ts := newTest(t, WI, 4)
	var v uint32
	ts.script().
		write(0, 64, 77).
		add(func(next func()) {
			// Flush and immediately read from another node without
			// waiting (the flush notification is still in flight).
			ts.s.FlushBlock(0, 64)
			ts.s.Read(1, 64, func(x uint32) {
				v = x
				next()
			})
		}).
		run()
	if v != 77 {
		t.Fatalf("read = %d, want 77", v)
	}
	if errs := ts.s.CheckCoherence(); len(errs) != 0 {
		t.Fatalf("incoherent: %v", errs)
	}
}

func TestUpdateToWatchedBlockDoesNotDrop(t *testing.T) {
	// CU: a block with a parked spinner is continuously referenced, so
	// any number of updates must not drop it.
	ts := newTest(t, CU, 2)
	sc := ts.script().read(1, 64, nil)
	sc.add(func(next func()) {
		ts.s.Cache(1).Watch(1, func() {}) // simulate a parked spinner
		next()
	})
	for i := 0; i < 3; i++ {
		sc.write(0, 64, uint32(100+i))
	}
	// Re-arm the watcher (they are one-shot) and send more updates.
	sc.add(func(next func()) {
		ts.s.Cache(1).Watch(1, func() {})
		next()
	})
	for i := 0; i < 3; i++ {
		sc.write(0, 64, uint32(200+i))
	}
	sc.run()
	if !ts.s.Cache(1).Present(1) {
		t.Fatal("watched block was dropped")
	}
}
