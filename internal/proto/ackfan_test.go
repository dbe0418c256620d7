package proto

import (
	"strings"
	"testing"

	"coherencesim/internal/cache"
	"coherencesim/internal/sim"
)

// Acknowledgement collection by hand-computed times. Every case runs on
// eight nodes — a 3x3 grid, node n at (n%3, n/3), a route costing
// Manhattan distance + 1 switches at 2 cycles each — with 2-byte flits:
// an ack, an invalidation or a control reply is 4 flits, a word message
// 8. A memory word write or atomic occupies the module 24 cycles. T is
// the instant the measured operation issues, with every interface idle.
// Acks and Processed are the values the tree wrote down before any ack
// was booked: a booked ack still counts as a message and as an event.

// withLocalDelay sets the interface loopback delay; a large one makes
// whatever the home node sends itself arrive after all mesh traffic.
func withLocalDelay(d sim.Time) testOpt { return func(c *Config) { c.Mesh.LocalDelay = d } }

// countQueuedAcks makes the next write-through/atomic operation and the
// next WI acquisition count the ack events that reach their handlers, by
// seeding the pools with objects whose cached ack closure counts.
func countQueuedAcks(s *System, n *int) {
	u := s.newUpdOp(0, 0, 0, access{})
	u.ackFn = func() { *n++; u.ack() }
	s.updOps.put(u)
	op := s.newWiOp(0, 0, 0, access{})
	op.ackFn = func() { *n++; op.ack() }
	s.wiOps.put(op)
}

// lastPut returns the object most recently taken back by p.
func lastPut[T any](p *pool[T]) *T { return p.free[len(p.free)-1] }

func TestUpdateAcksBookedFenceReleaseTimes(t *testing.T) {
	cases := []struct {
		name       string
		protocol   Protocol
		atomic     bool
		addr       cache.Addr // block 4 lives on node 4, block 0 on the writer
		sharers    []int
		localDelay sim.Time
		release    sim.Time // fence release, cycles after T
		booked     sim.Time // arrival of the last booked ack, cycles after T
		acks       uint64
		processed  uint64
	}{
		// Writer 0, home 4 (3 switches away), sharers 1, 3, 5. Request
		// arrives T+6+8 = T+14, memory done T+38. The home's interface
		// then sends back to back: updates leave at T+38, T+46, T+54
		// and land at T+50, T+58, T+66 (4 + 8 cycles each), the reply
		// leaves at T+62 and lands at T+62+6+4 = T+72. Node 0's
		// interface takes the acks behind it: from 1 (head T+54) at
		// T+76, from 3 (head T+62) at T+80 — both booked — and from 5
		// (head T+66+8) at T+84, the one event, which releases.
		{"PU write, reply first", PU, false, 256, []int{1, 3, 5}, 1, 84, 80, 3, 22},
		// Writer 0 is the home and talks to itself slowly: request
		// T+100, memory T+124, updates to 1, 3, 4 land at T+136,
		// T+144, T+154; acks land at T+144, T+152 (booked) and
		// T+154+6+4 = T+164 (queued), all counted before the reply
		// loops back at T+224 and releases.
		{"PU write, reply last", PU, false, 0, []int{1, 3, 4}, 100, 224, 152, 3, 22},
		// CU, threshold 2, both sharers one update old, 5 has since
		// read its copy. Atomic by 0 at home 4: memory done T+38,
		// updates land at 1 (T+50) and 5 (T+58), the word reply leaves
		// at T+54 and lands at T+54+6+8 = T+68. Node 1 drops: its drop
		// notice holds its interface until T+54, so its ack heads out
		// then, reaches node 0 at T+58 and drains behind the reply at
		// T+72 — booked. Node 5 applies; its ack (head T+66) drains at
		// T+76 and releases.
		{"CU atomic with a drop, reply first", CU, true, 256, []int{1, 5}, 1, 76, 72, 4, 25},
		// The same on the home's own block with a slow loopback:
		// request T+100, memory T+124, updates land at 1 (T+136) and 4
		// (T+146). Node 1's notice reaches node 0 at T+144, its ack
		// right behind at T+148 (booked); node 4's ack at T+146+6+4 =
		// T+156 (queued). The reply loops back at T+224 and releases.
		{"CU atomic with a drop, reply last", CU, true, 0, []int{1, 4}, 100, 224, 148, 4, 25},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := newTest(t, c.protocol, 8, withLocalDelay(c.localDelay), withCUThreshold(2))
			s := ts.s
			sc := ts.script().read(0, c.addr, nil)
			for _, q := range c.sharers {
				sc.read(q, c.addr, nil)
			}
			if c.atomic {
				// Age both copies by one update, then let the last
				// sharer touch its copy again: only the first drops.
				sc.write(0, c.addr, 1).read(c.sharers[len(c.sharers)-1], c.addr, nil)
			}
			var issued, released sim.Time
			queued := 0
			sc.add(func(done func()) {
				issued = ts.e.Now()
				countQueuedAcks(s, &queued)
				fence := func() { s.WhenDrained(0, func() { released = ts.e.Now(); done() }) }
				if c.atomic {
					s.Atomic(0, c.addr, FetchAdd, 1, 0, func(uint32) { fence() })
				} else {
					s.Write(0, c.addr, 7, fence)
				}
			})
			sc.run()
			if got := released - issued; got != c.release {
				t.Errorf("fence released %d cycles after issue, want %d", got, c.release)
			}
			if got := lastPut(&s.updOps).booked - issued; got != c.booked {
				t.Errorf("last booked ack arrives %d cycles after issue, want %d", got, c.booked)
			}
			if queued != 1 {
				t.Errorf("%d ack events reached the transaction, want only the last one sent", queued)
			}
			if got := s.Counters().Acks; got != c.acks {
				t.Errorf("Counters.Acks = %d, want %d", got, c.acks)
			}
			if got := ts.e.Processed(); got != c.processed {
				t.Errorf("Engine.Processed() = %d, want %d", got, c.processed)
			}
			if errs := s.CheckCoherence(); len(errs) != 0 {
				t.Errorf("incoherent: %v", errs)
			}
		})
	}
}

// A WI upgrade by node 0 of block 4 (home 4) shared with 1, 5 and the
// home itself. The request lands at T+6+4 = T+10; invalidations leave the
// home at T+10 and T+14 and land at 1 (T+18) and 5 (T+22); the mesh acks
// drain into the home at T+26 (booked) and T+30 (queued). The home's own
// copy is invalidated and acknowledged through the loopback, outside the
// interface FIFO, and stays two queued events.
func TestWIAcksBookedGrantTimes(t *testing.T) {
	cases := []struct {
		name       string
		localDelay sim.Time
		grant      sim.Time // store performed, cycles after T
		processed  uint64
	}{
		// Loopback ack at T+12, first: the queued mesh ack at T+30
		// grants, and the grant lands at T+30+6+4.
		{"loopback ack first", 1, 40, 21},
		// Loopback ack at T+210, last: it grants, landing T+220.
		{"loopback ack last", 100, 220, 21},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ts := newTest(t, WI, 8, withLocalDelay(c.localDelay))
			s := ts.s
			var issued, granted sim.Time
			queued := 0
			ts.script().
				read(0, 256, nil).read(1, 256, nil).read(4, 256, nil).read(5, 256, nil).
				add(func(done func()) {
					issued = ts.e.Now()
					countQueuedAcks(s, &queued)
					s.Write(0, 256, 7, func() { granted = ts.e.Now(); done() })
				}).
				run()
			if got := granted - issued; got != c.grant {
				t.Errorf("ownership granted %d cycles after issue, want %d", got, c.grant)
			}
			if got := lastPut(&s.wiOps).booked - issued; got != 26 {
				t.Errorf("booked ack arrives %d cycles after issue, want 26", got)
			}
			if queued != 2 {
				t.Errorf("%d ack events reached the home, want 2: the loopback one and the last mesh one", queued)
			}
			if got := s.Counters().Acks; got != 3 {
				t.Errorf("Counters.Acks = %d, want 3", got)
			}
			if got := ts.e.Processed(); got != c.processed {
				t.Errorf("Engine.Processed() = %d, want %d", got, c.processed)
			}
			if ln := s.Cache(0).Lookup(4); ln == nil || ln.State != cache.Exclusive || ln.Data[0] != 7 {
				t.Errorf("writer's line after the grant: %+v", ln)
			}
		})
	}
}

// Booking leans on the destination interface delivering in sending
// order. A mesh that forgets a booking (here: its interface occupancy
// rewound) would let the queued ack overtake a booked one and complete
// the collection early; sendAck must refuse instead.
func TestFinalAckOvertakingBookedOnePanics(t *testing.T) {
	ts := newTest(t, PU, 8)
	s := ts.s
	f := multicast{unacked: 2, left: 2}
	if f.sendAck(s, 0, 7, nil); f.unacked != 1 || f.booked == 0 {
		t.Fatalf("first of two acks: %d left to count, booked=%d, want it booked and counted", f.unacked, f.booked)
	}
	s.nw.Reset() // rewind the interfaces to the idle machine's
	defer func() {
		if r, _ := recover().(string); !strings.Contains(r, "final acknowledgement arrives before a booked one") {
			t.Fatalf("recovered %q, want the arrival-order panic", r)
		}
	}()
	f.sendAck(s, 0, 1, func() {})
	t.Fatal("an ack arriving before a booked one was accepted")
}
