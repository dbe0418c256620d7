package proto

import (
	"testing"

	"coherencesim/internal/cache"
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
