package proto

import (
	"reflect"
	"testing"

	"coherencesim/internal/cache"
)

// TestResetMidFlightLeavesNoTrace: an explorer reset with every pooled
// kind in flight, each holding a frame where it borrows one, runs a
// schedule exactly as a fresh explorer does and allocates nothing for
// it. Reset takes back every object and frame the last run lent, and a
// taken-back object carries none of its last transaction into the next.
func TestResetMidFlightLeavesNoTrace(t *testing.T) {
	const n = 4 // block b's home is node b
	type step func(x *Explorer)
	rd, retire, atDone := func(uint32) {}, func() {}, func(uint32) {}
	addr := func(b int) cache.Addr { return cache.Addr(b * cache.BlockBytes) }
	read := func(p, b int) step { return func(x *Explorer) { x.Read(p, addr(b), rd) } }
	write := func(p, b int, v uint32) step {
		return func(x *Explorer) { x.Write(p, addr(b), v, retire); x.Drain() }
	}
	atomic := func(p, b int) step {
		return func(x *Explorer) { x.Atomic(p, addr(b), FetchAdd, 1, 0, atDone); x.Drain() }
	}
	flush := func(p, b int) step { return func(x *Explorer) { x.FlushBlock(p, addr(b)) } }
	deliver := func(src, dst int) step { return func(x *Explorer) { x.Deliver(src, dst) } }
	cases := []struct {
		protocol Protocol
		sched    []step
		inFlight []MsgKind // each on some channel; the data-carrying ones hold a frame
	}{
		{WI, []step{
			write(1, 2, 5), settle, read(2, 3), settle, read(1, 0), settle, read(2, 0), settle,
			flush(1, 2),               // dirty write-back on 1>2
			flush(2, 3),               // relinquish on 2>3
			read(0, 1), deliver(0, 1), // read reply on 1>0
			write(3, 0, 7), deliver(3, 0), // block fetched for node 3, invalidations on 0>1 and 0>2
		}, []MsgKind{MsgWB, MsgNote, MsgInv, MsgReadReply}},
		{PU, []step{
			read(1, 0), settle, read(2, 0), settle, read(3, 2), settle,
			read(2, 3), settle, write(2, 3, 4), settle, write(2, 3, 6), settle, // node 2 retains block 3, dirty
			flush(2, 3),                                  // dirty write-back on 2>3
			flush(3, 2),                                  // relinquish on 3>2
			write(1, 0, 9), deliver(1, 0), deliver(0, 1), // replied; the update on 0>2, its ack to come
			read(3, 1), deliver(3, 1), // read reply on 1>3
		}, []MsgKind{MsgWB, MsgNote, MsgUpd, MsgReadReply}},
		{CU, []step{
			read(1, 0), settle, read(0, 2), settle, read(1, 2), settle,
			atomic(3, 0), deliver(3, 0), // no sharer: the reply on 0>3 carries the block; the update on 0>1
			write(1, 2, 3), deliver(1, 2), deliver(2, 0), // node 0 drops block 2: drop notice on 0>2
			// A sharer's atomic, whose reply carries no block: after a
			// reset it runs on the op the first atomic held a frame in.
			atomic(1, 0), deliver(1, 0),
		}, []MsgKind{MsgAtomReply, MsgUpd, MsgNote}},
	}
	for _, c := range cases {
		t.Run(c.protocol.String(), func(t *testing.T) {
			cfg := DefaultConfig(c.protocol)
			cfg.CUThreshold = 1
			run := func(x *Explorer) {
				for _, s := range c.sched {
					s(x)
				}
			}
			x := NewExplorer(n, cfg, Faults{})
			run(x)
			for _, k := range c.inFlight {
				framed := k != MsgWB && k != MsgReadReply && k != MsgAtomReply
				for _, ch := range inFlight(x, k) {
					for _, h := range x.Queue(ch[0], ch[1]) {
						framed = framed || h.Kind == k && h.Data != nil
					}
				}
				if len(inFlight(x, k)) == 0 || !framed {
					t.Fatalf("no %v in flight, holding a frame where it borrows one", k)
				}
			}
			if a := testing.AllocsPerRun(10, func() { x.Reset(); run(x) }); a != 0 {
				t.Errorf("a schedule after a mid-flight reset allocates %.1f objects, want 0", a)
			}
			y := NewExplorer(n, cfg, Faults{})
			run(y)
			sameState(t, "mid-flight", x, y)
			settle(x)
			settle(y)
			sameState(t, "settled", x, y)
			if errs := x.CheckCoherence(); len(errs) > 0 {
				t.Fatal(errs[0])
			}
		})
	}
}

// sameState fails t unless x and y picture every block alike, hold the same
// messages on every channel and at every directory entry, and count
// alike.
func sameState(t *testing.T, when string, x, y *Explorer) {
	t.Helper()
	n := x.ch.n
	for b := uint32(0); b < uint32(n); b++ {
		var bx, by BlockDump
		x.DumpBlock(b, &bx)
		y.DumpBlock(b, &by)
		if !reflect.DeepEqual(bx, by) {
			t.Errorf("%s: block %d pictured %+v after the reset, %+v fresh", when, b, bx, by)
		}
		if wx, wy := x.Waiting(b), y.Waiting(b); len(wx)+len(wy) > 0 && !reflect.DeepEqual(wx, wy) {
			t.Errorf("%s: block %d's entry queues %v after the reset, %v fresh", when, b, wx, wy)
		}
	}
	for i := 0; i < n*n; i++ {
		if qx, qy := x.Queue(i/n, i%n), y.Queue(i/n, i%n); len(qx)+len(qy) > 0 && !reflect.DeepEqual(qx, qy) {
			t.Errorf("%s: channel %d>%d holds %v after the reset, %v fresh", when, i/n, i%n, qx, qy)
		}
	}
	if cx, cy := x.Counters(), y.Counters(); cx != cy {
		t.Errorf("%s: counters %+v after the reset, %+v fresh", when, cx, cy)
	}
}
