package proto

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"coherencesim/internal/cache"
	"coherencesim/internal/mesh"
	"coherencesim/internal/sim"
)

// An update multicast keeps one record, its updOp: each delivery finds
// its sharer in the op's fan table on the mesh, and in the header being
// delivered on the choice network. These tests multicast to sharers
// whose arrivals do not follow sharer order and check that each sharer
// gets its update, with the right value, at the instant the mesh booked
// for it.

// withMesh replaces the network parameters.
func withMesh(m mesh.Config) testOpt { return func(c *Config) { c.Mesh = m } }

// sharedByAll has every node read block b's first word and runs the
// engine to quiescence.
func sharedByAll(ts *testSystem, n int, b cache.Addr) {
	sc := ts.script()
	for p := 0; p < n; p++ {
		sc.read(p, b, nil)
	}
	sc.run()
}

// TestUpdateMulticastOutOfSharerOrder: 16 nodes on a 4x4 grid share
// block 5, whose home is node 5; node 0 stores to it (or swaps into it).
// A word message is one flit and a switch costs 4 cycles, so distance,
// not the home's interface, orders the arrivals: node 3, three steps
// from the home, lands after node 4, sent after it but one step away,
// and together with node 8; the home's own copy loops back first though
// it is sent fifth; and node 6, next to the home, lands last because
// the test booked its input interface up front. The expected instants
// come from a second network booked with the same messages.
func TestUpdateMulticastOutOfSharerOrder(t *testing.T) {
	const n, block, writer, home, far, booked = 16, 5, 0, 5, 3, 6
	addr := cache.Addr(block * cache.BlockBytes)
	mcfg := mesh.Config{FlitBytes: 16, SwitchDelay: 4, LocalDelay: 1}
	for _, atomic := range []bool{false, true} {
		t.Run(fmt.Sprintf("atomic=%v", atomic), func(t *testing.T) {
			ts := newTest(t, PU, n, withMesh(mcfg))
			s := ts.s
			sharedByAll(ts, n, addr)
			at := make([]sim.Time, n)
			val := make([]uint32, n)
			var order []int // sharers in the order their updates ran
			for q := 0; q < n; q++ {
				if q == writer {
					continue
				}
				c := s.Cache(q)
				c.Watch(block, func() {
					at[q], val[q] = ts.e.Now(), c.Lookup(block).Data[0]
					order = append(order, q)
				})
			}
			const want = 7
			var issued sim.Time
			completions, drains := 0, 0
			ts.e.Schedule(0, func() {
				issued = ts.e.Now()
				s.nw.Book(n-1, booked, 16*200) // node 6's input is busy for 200 cycles
				done := func() { completions++; s.WhenDrained(writer, func() { drains++ }) }
				if atomic {
					s.Atomic(writer, addr, FetchStore, want, 0, func(uint32) { done() })
				} else {
					s.Write(writer, addr, want, done)
				}
			})
			ts.e.Run()
			op := lastPut(&s.updOps)

			// The same bookings on an idle network of the same shape.
			e := sim.NewEngine()
			nw := mesh.New(e, n, mcfg)
			expect := make([]sim.Time, n)
			e.At(issued, func() { nw.Book(n-1, booked, 16*200) })
			e.At(op.fanAt, func() {
				for q := 0; q < n; q++ {
					if q != writer {
						expect[q] = nw.Send(home, q, szWord, func() {})
					}
				}
			})
			e.Run()

			for q := 0; q < n; q++ {
				if q != writer && (at[q] != expect[q] || val[q] != want) {
					t.Errorf("node %d got %d at T+%d, want %d at T+%d", q, val[q], at[q]-issued, want, expect[q]-issued)
				}
			}
			// Updates landing together run in the order they were sent.
			wantOrder := slices.Clone(order)
			slices.SortFunc(wantOrder, func(a, b int) int { return cmp.Or(cmp.Compare(expect[a], expect[b]), a-b) })
			if !slices.Equal(order, wantOrder) {
				t.Errorf("updates ran in the order %v, want %v", order, wantOrder)
			}
			// The premises: the arrivals are out of sharer order as
			// described, and at least two land together.
			last, first := 0, 0
			tie := false
			for q := 1; q < n; q++ {
				if expect[q] > expect[last] {
					last = q
				}
				if expect[q] < expect[first] || first == writer {
					first = q
				}
				for r := 1; r < q; r++ {
					tie = tie || expect[r] == expect[q]
				}
			}
			if last != booked || first != home || expect[far] <= expect[far+1] || !tie {
				t.Fatalf("arrivals %v do not exercise the fan table: last %d, first %d", expect, last, first)
			}
			if completions != 1 || drains != 1 {
				t.Errorf("completed %d times, drained %d times, want once each", completions, drains)
			}
			if len(s.updOps.free) != len(s.updOps.all) {
				t.Errorf("%d of %d update ops back in the pool", len(s.updOps.free), len(s.updOps.all))
			}
			if errs := s.CheckCoherence(); len(errs) != 0 {
				t.Errorf("incoherent: %v", errs)
			}
		})
	}
}

// TestExplorerUpdatesDeliveredInReverse: on the choice network the same
// multicast's updates are delivered highest sharer first; each reaches
// only its own sharer, with the value its header carries — the written
// one, or under the stale-value fault the one it overwrote.
func TestExplorerUpdatesDeliveredInReverse(t *testing.T) {
	const n, block, writer, home = 16, 5, 0, 5
	addr := cache.Addr(block * cache.BlockBytes)
	for _, stale := range []bool{false, true} {
		t.Run(fmt.Sprintf("stale=%v", stale), func(t *testing.T) {
			x := NewExplorer(n, DefaultConfig(PU, n), Faults{StaleUpdateValue: stale})
			x.Write(1, addr, 3, func() {})
			settle(x)
			for p := 0; p < n; p++ {
				x.Read(p, addr, func(uint32) {})
				settle(x)
			}
			completions, drains := 0, 0
			x.Write(writer, addr, 7, func() { completions++; x.WhenDrained(writer, func() { drains++ }) })
			x.Deliver(writer, home) // the home multicasts
			want := uint32(7)
			if stale {
				want = 3
			}
			word := func(q int) uint32 { return x.Cache(q).Lookup(block).Data[0] }
			for q := n - 1; q >= 0; q-- {
				if q == writer {
					continue
				}
				if h := x.Queue(home, q); len(h) != 1 || h[0].Kind != MsgUpd {
					t.Fatalf("channel %d>%d holds %+v, want the update", home, q, h)
				}
				x.Deliver(home, q)
				for r := 1; r < n; r++ {
					if got, w := word(r), uint32(3); r >= q && got != want || r < q && got != w {
						t.Fatalf("after delivering to node %d, node %d holds %d", q, r, got)
					}
				}
			}
			settle(x)
			if completions != 1 || drains != 1 {
				t.Errorf("completed %d times, drained %d times, want once each", completions, drains)
			}
			if len(x.updOps.free) != len(x.updOps.all) {
				t.Errorf("%d of %d update ops back in the pool", len(x.updOps.free), len(x.updOps.all))
			}
		})
	}
}

// TestUpdateMulticastZeroAllocs: a 31-sharer multicast, by a store and
// by an atomic, allocates nothing once its op's fan table has grown.
func TestUpdateMulticastZeroAllocs(t *testing.T) {
	const n = 32
	ts := newTest(t, PU, n)
	sharedByAll(ts, n, 0)
	retire, atDone := func() {}, func(uint32) {}
	v := uint32(0)
	iter := func() {
		v++
		ts.s.Write(1, 0, v, retire)
		ts.e.Run()
		ts.s.Atomic(2, 0, FetchAdd, 1, 0, atDone)
		ts.e.Run()
	}
	for i := 0; i < 3; i++ {
		iter()
	}
	sent := ts.s.Counters().UpdatesSent
	if avg := testing.AllocsPerRun(100, iter); avg != 0 {
		t.Fatalf("31-sharer write + atomic allocates %.2f objects/op, want 0", avg)
	}
	if got := ts.s.Counters().UpdatesSent - sent; got != 101*2*31 {
		t.Fatalf("%d updates sent over 101 iterations, want %d", got, 101*2*31)
	}
}
