package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// refHeap is a container/heap reference model over the same (at, seq)
// ordering, used to cross-check heap4's pop order.
type refHeap []event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old) - 1
	ev := old[n]
	*h = old[:n]
	return ev
}

// TestHeap4MatchesReference drives heap4 and a container/heap reference
// model through identical random push/pop interleavings and requires the
// exact same pop sequence, including bursts of same-time events whose
// relative order must follow seq.
func TestHeap4MatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var h heap4
		ref := &refHeap{}
		var seq uint64
		popped := 0
		for op := 0; op < 2000; op++ {
			if h.len() != ref.Len() {
				t.Fatalf("trial %d op %d: len mismatch heap4=%d ref=%d", trial, op, h.len(), ref.Len())
			}
			doPush := h.len() == 0 || rng.Intn(100) < 55
			if doPush {
				// Cluster times heavily so same-time bursts are common:
				// a third of pushes reuse one of a handful of times.
				var at Time
				switch rng.Intn(3) {
				case 0:
					at = Time(rng.Intn(4)) * 100
				default:
					at = Time(rng.Intn(5000))
				}
				seq++
				ev := event{at: at, seq: seq}
				h.push(ev)
				heap.Push(ref, ev)
				continue
			}
			got := h.pop()
			want := heap.Pop(ref).(event)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d pop %d: heap4 popped (at=%d seq=%d), reference popped (at=%d seq=%d)",
					trial, popped, got.at, got.seq, want.at, want.seq)
			}
			popped++
		}
		// Drain both fully; the tails must agree too.
		for h.len() > 0 {
			got := h.pop()
			want := heap.Pop(ref).(event)
			if got.at != want.at || got.seq != want.seq {
				t.Fatalf("trial %d drain: heap4 popped (at=%d seq=%d), reference popped (at=%d seq=%d)",
					trial, got.at, got.seq, want.at, want.seq)
			}
		}
		if ref.Len() != 0 {
			t.Fatalf("trial %d: reference still holds %d events after heap4 drained", trial, ref.Len())
		}
	}
}

// TestHeap4SameTimeBurst pins the FIFO property directly: a burst of
// events pushed for one instant pops in push (seq) order.
func TestHeap4SameTimeBurst(t *testing.T) {
	var h heap4
	const burst = 257 // crosses several 4-ary levels
	for i := 0; i < burst; i++ {
		h.push(event{at: 42, seq: uint64(i + 1)})
	}
	for i := 0; i < burst; i++ {
		ev := h.pop()
		if ev.seq != uint64(i+1) {
			t.Fatalf("pop %d: got seq %d, want %d", i, ev.seq, i+1)
		}
	}
}

// TestHeap4ArenaReuse verifies the free-list behaviour: after the heap
// has grown once, drain/refill cycles reuse the backing array's spare
// capacity instead of allocating.
func TestHeap4ArenaReuse(t *testing.T) {
	var h heap4
	var seq uint64
	fill := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			h.push(event{at: Time(seq % 97), seq: seq})
		}
	}
	drain := func() {
		for h.len() > 0 {
			h.pop()
		}
	}
	fill(512)
	drain()
	capAfterWarmup := cap(h.ev)
	if capAfterWarmup < 512 {
		t.Fatalf("warmup capacity %d < 512", capAfterWarmup)
	}

	allocs := testing.AllocsPerRun(20, func() {
		fill(512)
		drain()
	})
	if allocs != 0 {
		t.Errorf("drain/refill cycle allocates %.1f times per run, want 0", allocs)
	}
	if cap(h.ev) != capAfterWarmup {
		t.Errorf("backing capacity changed across reuse cycles: %d -> %d", capAfterWarmup, cap(h.ev))
	}

	// Vacated slots must not retain payload pointers (the arena recycles
	// slots, it must not pin dead callbacks).
	fill(8)
	drain()
	spare := h.ev[:cap(h.ev)]
	for i := range spare {
		if spare[i].fn != nil {
			t.Fatalf("vacated arena slot %d retains payload %+v", i, spare[i])
		}
	}
}
