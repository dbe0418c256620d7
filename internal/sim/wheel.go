package sim

import "math/bits"

// eventq is the engine's event queue: a two-level timing wheel with a
// heap overflow, popping events in exactly the (time, push order) order
// of the heap4 it grew out of, but with O(1) amortized push and pop for
// the near-future events that dominate simulation workloads (protocol
// hops, memory latencies, short stalls). Profiles of the lock/barrier
// workloads showed the 4-ary heap's pop — sift-downs over a queue that
// sustains hundreds of in-flight events — costing more than the
// simulated work itself; the wheel replaces those sift-downs with bucket
// links and bitmap scans.
//
// Structure:
//
//   - Level 1 is one bucket per cycle for the current 256-cycle chunk
//     [l1base, l1base+256). Each bucket is a FIFO of same-time events.
//   - Level 2 is one bucket per future chunk for the next 255 chunks
//     (times within (curChunk, curChunk+256) chunks, i.e. up to ~64k
//     cycles out). A level-2 bucket mixes times within its chunk.
//   - Events beyond the level-2 horizon go to an overflow heap4.
//
// A bucket is a head/tail pair of indexes into one slot arena shared by
// both levels, so retained storage is the peak number of events in
// flight, not every bucket's own high-water mark. A popped slot goes on
// a LIFO free list and is the next one pushed, while still in cache.
//
// Ordering argument (why pops reproduce heap order bit-for-bit): simulated
// time only advances, so within any single bucket the link order is push
// order provided every event *migrating* down a level arrives before any
// event is *pushed* directly into that bucket. Both migrations happen
// exactly when the consumption cursor crosses a horizon — overflow
// drains into level 2 the first time its chunk enters the level-2
// window, and a level-2 bucket cascades into level 1 when its chunk
// becomes current — which is strictly before any direct push can target
// that bucket (a direct push requires the horizon to have passed
// already). The overflow heap breaks time ties by a push counter, and
// cascading relinks a level-2 bucket into level 1 in list order, so
// same-time events keep their push order throughout.
type eventq struct {
	count int

	// minCache is the earliest queued time, valid while minOK. It keeps
	// the StallFor fast-path check (called on every simulated memory
	// operation) at two loads, like the heap's minAt. push can only
	// lower it; pop revalidates it for free while the current bucket
	// still holds events and otherwise invalidates it, leaving
	// hasEventAtOrBefore to recompute-and-cache on demand.
	minCache Time
	minOK    bool

	l1base Time // start of the current chunk (multiple of wheelSize)
	l1cur  int  // current level-1 bucket index (l1base+l1cur <= next event time)
	l1, l2 level

	// slots is the arena every bucket links into; slots[0] is the nil
	// index. free heads the list of recycled slots, chained through next.
	slots []slot
	free  int32

	overflow heap4
	seq      uint64 // overflow push counter: the heap's tie-breaker
}

// slot is one queued event in a bucket's list.
type slot struct {
	at   Time
	fn   func()
	next int32
}

// level is one ring of wheel buckets with its occupancy bitmap. A
// bucket's head and tail are meaningful only while its bit is set.
type level struct {
	head, tail [wheelSize]int32
	bits       [wheelSize / 64]uint64
}

const (
	wheelBits = 8
	wheelSize = 1 << wheelBits // level-1 slots (1 cycle each)
	wheelMask = wheelSize - 1
	l2Size    = 1 << wheelBits // level-2 slots (wheelSize cycles each)
	l2Mask    = l2Size - 1
)

// chunkOf returns t's level-2 chunk number.
func chunkOf(t Time) Time { return t >> wheelBits }

func (q *eventq) len() int { return q.count }

// push queues fn at time at. The caller guarantees at is not in the past.
func (q *eventq) push(at Time, fn func()) {
	if q.count == 0 {
		q.minCache, q.minOK = at, true
	} else if q.minOK && at < q.minCache {
		q.minCache = at
	}
	q.count++
	c, cur := chunkOf(at), chunkOf(q.l1base)
	switch {
	case c == cur:
		q.link(&q.l1, int(at)&wheelMask, q.alloc(at, fn))
	case c-cur < l2Size:
		q.link(&q.l2, int(c)&l2Mask, q.alloc(at, fn))
	default:
		q.seq++
		q.overflow.push(event{at: at, seq: q.seq, fn: fn})
	}
}

// alloc takes a slot for (at, fn), recycling the most recently freed one.
func (q *eventq) alloc(at Time, fn func()) int32 {
	s := q.free
	if s == 0 {
		if len(q.slots) == 0 {
			q.slots = append(q.slots, slot{}) // the nil index
		}
		q.slots = append(q.slots, slot{at: at, fn: fn})
		return int32(len(q.slots) - 1)
	}
	q.free = q.slots[s].next
	q.slots[s] = slot{at: at, fn: fn}
	return s
}

// link appends slot s to bucket i of lv. A list ends at its tail, so
// the tail's next is never read.
func (q *eventq) link(lv *level, i int, s int32) {
	if w, b := &lv.bits[i>>6], uint64(1)<<uint(i&63); *w&b == 0 {
		*w |= b
		lv.head[i] = s
	} else {
		q.slots[lv.tail[i]].next = s
	}
	lv.tail[i] = s
}

// pop removes and returns the earliest event. The caller guarantees the
// queue is non-empty. The slot is freed with its callback cleared, so
// the arena does not retain it.
func (q *eventq) pop() (Time, func()) {
	i := q.l1cur
	if q.l1.bits[i>>6]&(1<<uint(i&63)) == 0 {
		q.advance()
		i = q.l1cur
	}
	s := q.l1.head[i]
	sl := &q.slots[s]
	at, fn, next := sl.at, sl.fn, sl.next
	sl.fn, sl.next = nil, q.free
	q.free = s
	q.count--
	if s == q.l1.tail[i] {
		// Bucket drained; a same-time push relinks it from empty.
		q.l1.bits[i>>6] &^= 1 << uint(i&63)
		q.minOK = false
	} else {
		q.l1.head[i] = next
		q.minCache, q.minOK = at, true
	}
	return at, fn
}

// advance moves the consumption cursor to the next non-empty level-1
// bucket, cascading level 2 and draining the overflow heap when the
// current chunk is exhausted. The caller guarantees count > 0.
func (q *eventq) advance() {
	if i, ok := q.scanL1(q.l1cur + 1); ok {
		q.l1cur = i
		return
	}
	// Current chunk exhausted: find the next chunk with events. All
	// level-2 window chunks precede every overflow event (the overflow
	// holds only chunks beyond the window), so a non-empty level 2
	// always wins.
	cur := chunkOf(q.l1base)
	next, ok := q.scanL2(cur)
	if !ok {
		next = chunkOf(q.overflow.minAt())
	}
	// Drain overflow events whose chunks have entered the level-2
	// window (or the new current chunk itself). This must happen on
	// every chunk advance so migrated events land in their level-2
	// buckets before any direct push can target those buckets.
	for q.overflow.len() > 0 && chunkOf(q.overflow.minAt())-next < l2Size {
		ev := q.overflow.pop()
		q.link(&q.l2, int(chunkOf(ev.at))&l2Mask, q.alloc(ev.at, ev.fn))
	}
	// Cascade the new current chunk's level-2 bucket into level 1.
	q.l1base = next << wheelBits
	li := int(next) & l2Mask
	if q.l2.bits[li>>6]&(1<<uint(li&63)) != 0 {
		q.l2.bits[li>>6] &^= 1 << uint(li&63)
		for s, end := q.l2.head[li], q.l2.tail[li]; ; {
			next := q.slots[s].next
			q.link(&q.l1, int(q.slots[s].at)&wheelMask, s)
			if s == end {
				break
			}
			s = next
		}
	}
	i, ok := q.scanL1(0)
	if !ok {
		panic("sim: event queue corrupted: advance found no event")
	}
	q.l1cur = i
}

// scanL1 returns the first non-empty level-1 bucket at or after index
// from.
func (q *eventq) scanL1(from int) (int, bool) {
	if from >= wheelSize {
		return 0, false
	}
	w := from >> 6
	word := q.l1.bits[w] &^ (1<<uint(from&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word), true
		}
		w++
		if w >= wheelSize/64 {
			return 0, false
		}
		word = q.l1.bits[w]
	}
}

// scanL2 returns the nearest chunk strictly after cur that has a
// non-empty level-2 bucket. Bucket indexes are chunk numbers mod l2Size
// and the window is narrower than l2Size, so circular bitmap distance
// from cur+1 is chunk distance.
func (q *eventq) scanL2(cur Time) (Time, bool) {
	start := int(cur+1) & l2Mask
	w, bit := start>>6, uint(start&63)
	word := q.l2.bits[w] &^ (1<<bit - 1)
	for i := 0; i < l2Size/64+1; i++ {
		if word != 0 {
			idx := (w&(l2Size/64-1))<<6 + bits.TrailingZeros64(word)
			dist := Time((idx - start) & l2Mask)
			return cur + 1 + dist, true
		}
		w++
		word = q.l2.bits[w&(l2Size/64-1)]
	}
	return 0, false
}

// hasEventAtOrBefore reports whether any queued event has at <= t. It
// is the wheel's replacement for minAt comparisons: StallFor's fast
// path only ever needs this predicate. The common case is two loads
// against the cached minimum; a cache miss (first query after the
// current bucket drained) recomputes the exact minimum from the wheel
// and re-validates the cache.
func (q *eventq) hasEventAtOrBefore(t Time) bool {
	if q.count == 0 {
		return false
	}
	if q.minOK {
		return q.minCache <= t
	}
	return q.refreshMin() <= t
}

// refreshMin recomputes and re-validates the cached minimum (the
// hasEventAtOrBefore slow path). The compiler inlines it (cost 68) into
// hasEventAtOrBefore, which at cost 88 is over the budget of 80 and so
// is called, not inlined, from StallFor (go build -gcflags=-m=2).
func (q *eventq) refreshMin() Time {
	q.minCache, q.minOK = q.computeMin(), true
	return q.minCache
}

// computeMin finds the earliest queued time by scanning the wheel. The
// caller guarantees count > 0. Level-1 bucket times are their index;
// the nearest level-2 bucket mixes times within its chunk and must be
// walked; the overflow heap only matters when both wheels are empty
// (every level-2 window chunk precedes every overflow event).
func (q *eventq) computeMin() Time {
	if i, ok := q.scanL1(q.l1cur); ok {
		return q.l1base + Time(i)
	}
	if next, ok := q.scanL2(chunkOf(q.l1base)); ok {
		li := int(next) & l2Mask
		s := q.l2.head[li]
		m := q.slots[s].at
		for s != q.l2.tail[li] {
			s = q.slots[s].next
			m = min(m, q.slots[s].at)
		}
		return m
	}
	return q.overflow.minAt()
}

// reset empties the queue, clearing every slot so the arena retains no
// callbacks, and rewinds the cursors to time zero. The arena's and the
// overflow heap's capacities are kept for the next run.
func (q *eventq) reset() {
	clear(q.slots)
	clear(q.overflow.ev)
	*q = eventq{slots: q.slots[:0], overflow: heap4{ev: q.overflow.ev[:0]}}
}
