package proto

import (
	"reflect"
	"testing"

	"coherencesim/internal/cache"
	"coherencesim/internal/trace"
)

// Tests of the explore-only choice network: every message waits on its
// (src, dst) FIFO until the test delivers it.

func newChoice(protocol Protocol, n int) *Explorer {
	return NewExplorer(n, DefaultConfig(protocol, n), Faults{})
}

// settle delivers channel heads in (src, dst) order until nothing is in
// flight: each operation runs to completion on its own.
func settle(x *Explorer) {
	for n := x.ch.n; ; {
		i := 0
		for i < n*n && len(x.ch.hdrs[i]) == 0 {
			i++
		}
		if i == n*n {
			return
		}
		x.Deliver(i/n, i%n)
	}
}

// inFlight returns the channels holding a message of kind, one entry per
// message.
func inFlight(x *Explorer, kind MsgKind) (chans [][2]int) {
	for src := 0; src < x.ch.n; src++ {
		for dst := 0; dst < x.ch.n; dst++ {
			for _, h := range x.Queue(src, dst) {
				if h.Kind == kind {
					chans = append(chans, [2]int{src, dst})
				}
			}
		}
	}
	return chans
}

// TestChoiceAcksDeliveredOneByOne: under the choice network a k-sharer
// multicast yields k acknowledgements, each queued on its own channel and
// delivered as its own action — none booked through the mesh, none
// elided — and only the last completes the collection. The WI case
// includes the home's own copy, whose ack loops back.
func TestChoiceAcksDeliveredOneByOne(t *testing.T) {
	for _, c := range []struct {
		protocol  Protocol
		inv, ack  MsgKind
		collector int
	}{
		{WI, MsgInv, MsgInvAck, 0}, // the home collects
		{PU, MsgUpd, MsgUpdAck, 3}, // the writer collects
	} {
		t.Run(c.protocol.String(), func(t *testing.T) {
			x := newChoice(c.protocol, 4) // block 0's home is node 0
			for p := 0; p < 4; p++ {
				x.Read(p, 0, func(uint32) {})
				settle(x)
			}
			drained := false
			x.Write(3, 0, 7, func() { x.WhenDrained(3, func() { drained = true }) })
			x.Deliver(3, 0) // the request reaches the home, which multicasts
			events := x.e.Processed()
			for _, ch := range inFlight(x, c.inv) {
				x.Deliver(ch[0], ch[1])
			}
			acks := inFlight(x, c.ack)
			want := [][2]int{{0, c.collector}, {1, c.collector}, {2, c.collector}}
			if len(acks) != 3 || acks[0] != want[0] || acks[1] != want[1] || acks[2] != want[2] {
				t.Fatalf("acks queued on %v, want one on each of %v", acks, want)
			}
			if c.protocol == PU {
				x.Deliver(0, 3) // the reply heads channel 0>3, before node 0's ack
			}
			for i, ch := range acks {
				if drained {
					t.Fatalf("write drained after %d of 3 acks", i)
				}
				x.Deliver(ch[0], ch[1])
			}
			settle(x)
			if !drained {
				t.Fatal("write never drained")
			}
			if got := x.Counters().Acks; got != 3 {
				t.Errorf("Acks = %d, want 3", got)
			}
			if n := x.Network().Stats().Messages; n != 0 {
				t.Errorf("%d messages booked through the mesh", n)
			}
			if got := x.e.Processed(); got != events {
				t.Errorf("engine processed %d events while acks flowed, want none", got-events)
			}
			if errs := x.CheckCoherence(); len(errs) > 0 {
				t.Fatal(errs[0])
			}
		})
	}
}

// TestAtomicReplyBlockIsItsOwnImage: a new sharer's atomic reply carries
// the block as the atomic left it, even when the entry dispatches a
// second atomic behind it before the first one's memory access is done.
// Releasing a demoted block dispatches the queued atomic of node 1 and
// resumes node 0's in one action: 1 -> 2 for node 1, 2 -> 3 for node 0.
func TestAtomicReplyBlockIsItsOwnImage(t *testing.T) {
	x := newChoice(PU, 2)
	x.Atomic(1, 0, FetchAdd, 1, 0, func(uint32) {}) // needs the block; waits on 1>0
	x.Write(0, 0, 1, func() {})                     // node 0 ends up retaining block 0
	for len(x.Queue(0, 0)) > 0 {
		x.Deliver(0, 0)
	}
	var bd BlockDump
	x.DumpBlock(0, &bd)
	if d := bd.Dir; d.State != DirOwned || d.Owner != 0 {
		t.Fatalf("directory %+v, want owned by node 0", *d)
	}
	x.Atomic(0, 0, FetchAdd, 1, 0, func(uint32) {})
	x.Deliver(0, 0) // the home starts demoting node 0
	x.Deliver(1, 0) // node 1's atomic queues behind the busy entry
	x.Deliver(0, 0) // node 0 demotes
	x.Deliver(0, 0) // the home releases: both atomics execute
	q := x.Queue(0, 1)
	if len(q) == 0 || q[0].Kind != MsgAtomReply {
		t.Fatalf("channel 0>1 holds %+v, want node 1's atomic reply first", q)
	}
	if r := q[0]; r.Val != 1 || r.Val2 != 2 || r.Data[cache.WordOf(0)] != 2 {
		t.Fatalf("reply old %d new %d block word %d, want 1, 2 and the block as 2", r.Val, r.Val2, r.Data[0])
	}
	settle(x)
	if errs := x.CheckCoherence(); len(errs) > 0 {
		t.Fatal(errs[0])
	}
}

// TestTracedGrantBeforeAcks: under the grant-before-acks fault the
// invalidations outlive their op, so they must not reach for it — not
// even for the tracer, which a traced explorer consults on every
// invalidation that finds a copy.
func TestTracedGrantBeforeAcks(t *testing.T) {
	const n = 4
	cfg := DefaultConfig(WI, n)
	cfg.Txn = trace.NewTracer(n, 0)
	x := NewExplorer(n, cfg, Faults{GrantBeforeAcks: true})
	for p := 0; p < n; p++ {
		x.Read(p, 0, func(uint32) {})
		settle(x)
	}
	x.Write(1, 0, 7, func() {})
	settle(x)
	for p := 0; p < n; p++ {
		if p != 1 && x.Cache(p).Present(0) {
			t.Errorf("node %d still caches block 0", p)
		}
	}
	if len(x.wiOps.free) != len(x.wiOps.all) {
		t.Errorf("%d of %d WI ops back in the pool", len(x.wiOps.free), len(x.wiOps.all))
	}
}

// TestExplorerWritebackOvertaken follows a write-back that a recall
// overtakes, step by step: node 1 owns block 0 (homed on node 0) and
// flushes it while the home's fetch for node 2's read is on its way.
// The fetch serves the data from the write-back and cancels it; the
// write-back then waits at the busy entry and is discarded once the
// recalled data has refreshed memory.
func TestExplorerWritebackOvertaken(t *testing.T) {
	x := newChoice(WI, 3)
	x.Write(1, 0, 7, func() {})
	settle(x)
	x.Read(2, 0, func(uint32) {})
	x.Deliver(2, 0) // the home sends node 1 a fetch
	var bd BlockDump
	step := func(after string, pending bool, cancelled int) {
		t.Helper()
		x.DumpBlock(0, &bd)
		if ln := bd.Lines[1]; ln.PendingWB != pending || ln.CancelledWB != cancelled {
			t.Fatalf("after %s: node 1 PendingWB %v, CancelledWB %d; want %v, %d",
				after, ln.PendingWB, ln.CancelledWB, pending, cancelled)
		}
	}
	x.FlushBlock(1, 0, func() {})
	step("the flush", true, 0)
	x.Deliver(0, 1)
	step("the fetch", false, 1)
	x.Deliver(1, 0)
	step("the write-back's arrival", false, 1)
	want := Msg{Kind: MsgWB, Src: 1, Data: make([]uint32, cache.WordsPerBlock)}
	want.Data[0] = 7
	if w := x.Waiting(0); len(w) != 1 || !reflect.DeepEqual(w[0], want) {
		t.Fatalf("waiting at the entry: %+v, want only %+v", w, want)
	}
	x.Deliver(1, 0)
	step("the data", false, 0)
	if bd.Memory[0] != 7 {
		t.Fatalf("memory word 0 is %d, want 7", bd.Memory[0])
	}
	settle(x) // the read reply: node 2's copy is the one the directory lists
	if errs := x.CheckCoherence(); len(errs) != 0 {
		t.Fatalf("incoherent: %v", errs)
	}
}
