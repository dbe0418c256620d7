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

// A multicast, of invalidations under WI or of updates under PU, keeps
// one record in its op: each delivery finds its sharer in the op's fan
// table on the mesh, and in the header being delivered on the choice
// network. These tests multicast to sharers whose arrivals do not follow
// sharer order and check that each sharer loses its copy, or gets its
// update with the right value, at the instant the mesh booked for it.

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

// TestMulticastOutOfSharerOrder: 16 nodes on a 4x4 grid share block 5,
// whose home is node 5; node 0 stores to it (or swaps into it). An
// invalidation or a word message is one flit and a switch costs 4
// cycles, so distance, not the home's interface, orders the arrivals:
// node 3, three steps from the home, lands after node 4, sent after it
// but one step away, and together with node 8; the home's own copy
// loops back first though it is sent fifth; and node 6, next to the
// home, lands last because the test booked its input interface up
// front. The expected instants come from a second network booked with
// the same messages.
func TestMulticastOutOfSharerOrder(t *testing.T) {
	const n, block, writer, home, far, booked = 16, 5, 0, 5, 3, 6
	addr := cache.Addr(block * cache.BlockBytes)
	mcfg := mesh.Config{FlitBytes: 16, SwitchDelay: 4, LocalDelay: 1}
	for _, tc := range []struct {
		pr     Protocol
		atomic bool
	}{{PU, false}, {PU, true}, {WI, false}, {WI, true}} {
		pr, atomic := tc.pr, tc.atomic
		t.Run(fmt.Sprintf("%v/atomic=%v", pr, atomic), func(t *testing.T) {
			ts := newTest(t, pr, n, withMesh(mcfg))
			s := ts.s
			sharedByAll(ts, n, addr)
			at := make([]sim.Time, n)
			val := make([]uint32, n)
			var order []int // sharers in the order their deliveries ran
			for q := 0; q < n; q++ {
				if q == writer {
					continue
				}
				c := s.Cache(q)
				c.Watch(block, func() {
					at[q] = ts.e.Now()
					if ln := c.Lookup(block); ln != nil {
						val[q] = ln.Data[0]
					}
					order = append(order, q)
				})
			}
			const want = 7
			wantVal, size := uint32(want), szWord
			if pr == WI {
				wantVal, size = 0, szControl // an invalidated copy is gone
			}
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
			var fanAt sim.Time
			if pr == WI {
				fanAt = lastPut(&s.wiOps).fanAt
			} else {
				fanAt = lastPut(&s.updOps).fanAt
			}

			// The same bookings on an idle network of the same shape.
			e := sim.NewEngine()
			nw := mesh.New(e, n, mcfg)
			expect := make([]sim.Time, n)
			e.At(issued, func() { nw.Book(n-1, booked, 16*200) })
			e.At(fanAt, func() {
				for q := 0; q < n; q++ {
					if q != writer {
						expect[q] = nw.Send(home, q, size, func() {})
					}
				}
			})
			e.Run()

			for q := 0; q < n; q++ {
				if q != writer && (at[q] != expect[q] || val[q] != wantVal) {
					t.Errorf("node %d got %d at T+%d, want %d at T+%d", q, val[q], at[q]-issued, wantVal, expect[q]-issued)
				}
				if q != writer && pr == WI && s.Cache(q).Present(block) {
					t.Errorf("node %d still caches block %d", q, block)
				}
			}
			// Deliveries landing together run in the order they were sent.
			wantOrder := slices.Clone(order)
			slices.SortFunc(wantOrder, func(a, b int) int { return cmp.Or(cmp.Compare(expect[a], expect[b]), a-b) })
			if !slices.Equal(order, wantOrder) {
				t.Errorf("deliveries ran in the order %v, want %v", order, wantOrder)
			}
			// The premises: the arrivals are out of sharer order as described,
			// and at least two land together.
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
			if len(s.updOps.free) != len(s.updOps.all) || len(s.wiOps.free) != len(s.wiOps.all) {
				t.Errorf("%d of %d update ops and %d of %d WI ops back in their pools",
					len(s.updOps.free), len(s.updOps.all), len(s.wiOps.free), len(s.wiOps.all))
			}
			if errs := s.CheckCoherence(); len(errs) != 0 {
				t.Errorf("incoherent: %v", errs)
			}
		})
	}
}

// TestExplorerMulticastDeliveredInReverse: on the choice network the
// same multicast's deliveries run highest sharer first. An update
// reaches only its own sharer, with the value its header carries — the
// written one, or under the stale-value fault the one it overwrote. An
// invalidation removes only its own sharer's copy and acknowledges the
// home, or, under the grant-before-acks fault, nobody.
func TestExplorerMulticastDeliveredInReverse(t *testing.T) {
	const n, block, writer, home = 16, 5, 0, 5
	addr := cache.Addr(block * cache.BlockBytes)
	for _, c := range []struct {
		pr    Protocol
		fault string
	}{{PU, "none"}, {PU, "stale-update-value"}, {WI, "none"}, {WI, "grant-before-acks"}} {
		t.Run(fmt.Sprintf("%v/%s", c.pr, c.fault), func(t *testing.T) {
			var f Faults
			if c.fault != "none" && !f.Set(c.fault) {
				t.Fatalf("no fault %q", c.fault)
			}
			x := NewExplorer(n, DefaultConfig(c.pr), f)
			x.Write(1, addr, 3, func() {})
			settle(x)
			for p := 0; p < n; p++ {
				x.Read(p, addr, func(uint32) {})
				settle(x)
			}
			completions, drains := 0, 0
			x.Write(writer, addr, 7, func() { completions++; x.WhenDrained(writer, func() { drains++ }) })
			x.Deliver(writer, home) // the home multicasts
			kind, want := MsgUpd, uint32(7)
			if f.StaleUpdateValue {
				want = 3
			}
			if c.pr == WI {
				kind = MsgInv
			}
			for q := n - 1; q >= 0; q-- {
				if q == writer {
					continue
				}
				if h := x.Queue(home, q); len(h) != 1 || h[0].Kind != kind {
					t.Fatalf("channel %d>%d holds %+v, want one %v", home, q, h, kind)
				}
				x.Deliver(home, q)
				for r := 1; r < n; r++ {
					ln := x.Cache(r).Lookup(block)
					switch {
					case c.pr == WI && (ln == nil) != (r >= q):
						t.Fatalf("after delivering to node %d, node %d caches the block: %v", q, r, ln != nil)
					case c.pr != WI && (r >= q && ln.Data[0] != want || r < q && ln.Data[0] != 3):
						t.Fatalf("after delivering to node %d, node %d holds %d", q, r, ln.Data[0])
					}
				}
				acks := len(inFlight(x, MsgInvAck))
				if c.pr == WI && !f.GrantBeforeAcks && acks != n-q || f.GrantBeforeAcks && acks != 0 {
					t.Fatalf("after delivering to node %d, %d invalidation acks in flight", q, acks)
				}
			}
			settle(x)
			if completions != 1 || drains != 1 {
				t.Errorf("completed %d times, drained %d times, want once each", completions, drains)
			}
			if len(x.updOps.free) != len(x.updOps.all) || len(x.wiOps.free) != len(x.wiOps.all) {
				t.Errorf("%d of %d update ops and %d of %d WI ops back in their pools",
					len(x.updOps.free), len(x.updOps.all), len(x.wiOps.free), len(x.wiOps.all))
			}
		})
	}
}

// TestMulticastZeroAllocs: a 31-sharer multicast allocates nothing once
// its op's fan table has grown: updates by a store and by an atomic, and
// invalidations by a store after every node has read the block again.
func TestMulticastZeroAllocs(t *testing.T) {
	const n = 32
	retire, atDone, rdDone := func() {}, func(uint32) {}, func(uint32) {}
	v := uint32(0)
	for _, pr := range []Protocol{PU, WI} {
		ts := newTest(t, pr, n)
		sharedByAll(ts, n, 0)
		iter := func() {
			v++
			ts.s.Write(1, 0, v, retire)
			ts.e.Run()
			ts.s.Atomic(2, 0, FetchAdd, 1, 0, atDone)
			ts.e.Run()
		}
		sent, per := func() uint64 { return ts.s.Counters().UpdatesSent }, uint64(2*31)
		if pr == WI {
			iter = func() {
				for p := 0; p < n; p++ {
					ts.s.Read(p, 0, rdDone)
				}
				ts.e.Run()
				v++
				ts.s.Write(1, 0, v, retire)
				ts.e.Run()
			}
			sent, per = func() uint64 { return ts.s.Counters().Invals }, 31
		}
		for i := 0; i < 3; i++ {
			iter()
		}
		before := sent()
		if avg := testing.AllocsPerRun(100, iter); avg != 0 {
			t.Fatalf("%v: 31-sharer multicasts allocate %.2f objects/op, want 0", pr, avg)
		}
		if got := sent() - before; got != 101*per {
			t.Fatalf("%v: %d deliveries over 101 iterations, want %d", pr, got, 101*per)
		}
	}
}
