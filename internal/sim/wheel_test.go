package sim

import (
	"math/rand"
	"testing"
)

// wheelRef drives the wheel and the trusted ordering reference — the
// 4-ary heap that used to be the engine's only queue, property-tested on
// its own in heap4_test.go — with the same pushes. Events are numbered in
// push order: the heap carries the number as seq, the wheel only inside
// the event's callback, which records it in fired when called.
type wheelRef struct {
	q     eventq
	ref   heap4
	n     uint64
	now   Time
	fired uint64
}

func (w *wheelRef) push(at Time) {
	w.n++
	id := w.n
	w.q.push(at, func() { w.fired = id })
	w.ref.push(event{at: at, seq: id})
}

// pop pops both queues and fails unless they agree on (at, number).
func (w *wheelRef) pop(t *testing.T) {
	t.Helper()
	if w.q.len() != w.ref.len() {
		t.Fatalf("len mismatch wheel=%d ref=%d", w.q.len(), w.ref.len())
	}
	at, fn := w.q.pop()
	want := w.ref.pop()
	fn()
	if at != want.at || w.fired != want.seq {
		t.Fatalf("pop mismatch wheel=(%d,#%d) ref=(%d,#%d)", at, w.fired, want.at, want.seq)
	}
	w.now = at
}

// probe fails unless the wheel's emptiness predicate at time p agrees
// with the reference minimum.
func (w *wheelRef) probe(t *testing.T, p Time) {
	t.Helper()
	want := w.ref.len() > 0 && w.ref.minAt() <= p
	if got := w.q.hasEventAtOrBefore(p); got != want {
		t.Fatalf("hasEventAtOrBefore(%d)=%v want %v (now %d)", p, got, want, w.now)
	}
}

// drain pops both queues to empty.
func (w *wheelRef) drain(t *testing.T) {
	t.Helper()
	for w.ref.len() > 0 {
		w.pop(t)
	}
	if w.q.len() != 0 {
		t.Fatalf("wheel retains %d events after the reference drained", w.q.len())
	}
}

// TestWheelMatchesHeapOrder drives the wheel and the reference heap
// with identical randomized schedules shaped like real simulations —
// time only advances, pushes target the popped event's time plus a
// delta skewed toward small values but occasionally far beyond the
// level-2 horizon — and checks every pop agrees exactly on (at, push
// order).
func TestWheelMatchesHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	delta := func() Time {
		switch rng.Intn(10) {
		case 0, 1, 2, 3: // same cycle or next few: same-bucket ties
			return Time(rng.Intn(4))
		case 4, 5, 6: // within the level-1 chunk
			return Time(rng.Intn(wheelSize))
		case 7, 8: // level-2 window
			return Time(rng.Intn(wheelSize * l2Size))
		default: // beyond the horizon: overflow heap
			return Time(wheelSize*l2Size + rng.Intn(1<<20))
		}
	}
	for trial := 0; trial < 50; trial++ {
		var w wheelRef
		for i := 0; i < 64; i++ {
			w.push(delta())
		}
		for steps := 0; w.q.len() > 0; steps++ {
			// Cross-check the emptiness predicate against the reference
			// minimum at a few horizons around it.
			min := w.ref.minAt()
			for _, p := range []Time{w.now, min - 1, min, min + 1, min + wheelSize, min + wheelSize*l2Size} {
				if p >= w.now {
					w.probe(t, p)
				}
			}
			w.pop(t)
			// Simulation-shaped churn: most pops schedule follow-ups.
			for rng.Intn(3) != 0 && steps < 20000 {
				w.push(w.now + delta())
			}
		}
		w.drain(t)
	}
}

// TestWheelSameTimeFIFO checks that events tying on time pop in push
// order across every routing path: direct level-1 pushes, level-2
// cascades, and overflow drains into the same eventual bucket.
func TestWheelSameTimeFIFO(t *testing.T) {
	var w wheelRef
	at := Time(3*wheelSize*l2Size + 12345) // beyond the horizon from time 0
	for i := 0; i < 8; i++ {
		w.push(at) // overflow path
	}
	// A nearer event forces pops to walk chunk advances before at.
	w.push(5)
	w.pop(t)
	// Now at's chunk is current: a push at at ties in level 1 behind the
	// drained overflow events, and one a chunk later goes to level 2.
	w.pop(t)
	w.push(at)
	w.push(at + wheelSize)
	w.push(at)
	w.drain(t)
	if w.fired != 11 {
		t.Fatalf("last event popped is #%d, want #11", w.fired)
	}
}

// FuzzWheelOrder decodes push, pop and hasEventAtOrBefore schedules from
// bytes and checks the wheel against the reference heap. Each op is
// three bytes: op%4 picks tie push (0), far push (1), pop (2) or probe
// (3); for a far push op/4%4 picks the distance class — within level 1,
// within the level-2 window, beyond the horizon, or spread across all
// three; the next two bytes are the distance.
func FuzzWheelOrder(f *testing.F) {
	// Same-time ties: a burst at one instant, popped partway, topped up.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 3, 0, 0})
	// Level-2 cascades: pushes into several chunks of the window, with
	// ties inside one chunk, popped across chunk advances.
	f.Add([]byte{5, 0, 1, 5, 0, 1, 5, 0x20, 3, 5, 0xff, 0xff, 5, 1, 1, 2, 0, 0, 5, 0, 1, 3, 0, 2, 2, 0, 0, 2, 0, 0})
	// Overflow drains: events beyond the horizon, a nearer one, then
	// pops that drain the heap into level 2 and cascade it.
	f.Add([]byte{9, 0, 0, 9, 0, 0, 9, 5, 0, 1, 3, 0, 2, 0, 0, 3, 0xff, 0xff, 2, 0, 0, 9, 0, 0, 2, 0, 0, 13, 0xff, 0x7f, 2, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var w wheelRef
		for ; len(data) >= 3; data = data[3:] {
			op, x := data[0], Time(data[1])|Time(data[2])<<8
			switch op % 4 {
			case 0:
				w.push(w.now + x%4)
			case 1:
				switch op / 4 % 4 {
				case 0:
					x %= wheelSize
				case 2:
					x += wheelSize * l2Size
				case 3:
					x <<= 8
				}
				w.push(w.now + x)
			case 2:
				if w.ref.len() > 0 {
					w.pop(t)
				}
			default:
				w.probe(t, w.now+x)
			}
		}
		w.drain(t)
	})
}

// TestWheelResetClearsArena checks reset leaves no callbacks in the slot
// arena or the overflow heap, across all three routing paths, and keeps
// their storage.
func TestWheelResetClearsArena(t *testing.T) {
	var q eventq
	fn := func() {}
	for _, at := range []Time{0, 7, 7, wheelSize + 3, wheelSize*l2Size + 99} {
		q.push(at, fn)
	}
	q.pop() // one slot on the free list, three live
	if len(q.slots) != 5 || q.overflow.len() != 1 {
		t.Fatalf("%d slots (with the nil index), %d overflow events; want 5, 1", len(q.slots), q.overflow.len())
	}
	q.reset()
	if q.len() != 0 || q.free != 0 || len(q.slots) != 0 || cap(q.slots) == 0 {
		t.Fatalf("after reset: len %d, free %d, %d slots of cap %d", q.len(), q.free, len(q.slots), cap(q.slots))
	}
	for i, s := range q.slots[:cap(q.slots)] {
		if s.fn != nil {
			t.Fatalf("slot %d retains its callback after reset", i)
		}
	}
	for i, ev := range q.overflow.ev[:cap(q.overflow.ev)] {
		if ev.fn != nil {
			t.Fatalf("overflow slot %d retains its callback after reset", i)
		}
	}
}

// TestWheelSteadyStateAllocFree mirrors the heap arena test: once the
// arena has grown to the peak in flight, drain/refill cycles across all
// three routing paths must not allocate, and the arena is that peak, not
// a sum over the buckets the cycles swept.
func TestWheelSteadyStateAllocFree(t *testing.T) {
	var q eventq
	var now Time
	fn := func() {}
	cycle := func() {
		start := now
		for i := 0; i < 255; i++ {
			q.push(start+Time(i%7)*Time(i), fn)
		}
		q.push(start+wheelSize*l2Size, fn)
		for q.len() > 0 {
			now, _ = q.pop()
		}
	}
	// Sweep simulated time across the whole wheel, so every bucket
	// index has been used.
	for i := 0; i < 4*l2Size; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Errorf("drain/refill cycle allocates %.1f times per run, want 0", allocs)
	}
	// 255 in the wheel at once; the overflow event takes a freed slot.
	if n := len(q.slots); n != 255+1 {
		t.Errorf("arena holds %d slots (with the nil index) after cycles of 255 in the wheel, want 256", n)
	}
}
