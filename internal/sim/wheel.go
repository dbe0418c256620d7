package sim

import "math/bits"

// eventq is the engine's event queue: a two-level timing wheel with a
// heap overflow, ordered exactly by (at, seq) like the heap4 it grew out
// of, but with O(1) amortized push and pop for the near-future events
// that dominate simulation workloads (protocol hops, memory latencies,
// short stalls). Profiles of the lock/barrier workloads showed the
// 4-ary heap's pop — sift-downs over a queue that sustains hundreds of
// in-flight events — costing more than the simulated work itself; the
// wheel replaces those sift-downs with bucket appends and bitmap scans.
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
// Ordering argument (why pops reproduce heap order bit-for-bit): seq is
// assigned monotonically at push, and simulated time only advances, so
// within any single bucket the append order is seq order provided every
// event *migrating* down a level arrives before any event is *pushed*
// directly into that bucket. Both migrations happen exactly when the
// consumption cursor crosses a horizon — overflow drains into level 2
// the first time its chunk enters the level-2 window, and a level-2
// bucket cascades into level 1 when its chunk becomes current — which
// is strictly before any direct push can target that bucket (a direct
// push requires the horizon to have passed already). Cascading
// distributes a level-2 bucket over the level-1 buckets in slice order,
// which is stable, so same-time events keep their seq order. Level-1
// buckets therefore hold same-time events in increasing seq, and the
// wheel pops buckets in time order — exactly the heap's (at, seq).
type eventq struct {
	count int

	// single holds the queue's only event while hasOne: chains that keep
	// exactly one event in flight (a memory access completing before the
	// next issues, a lone processor stalling) never touch the wheel at
	// all — push stores here, pop returns it and repositions the cursor
	// to the popped time. A second push demotes the held event into the
	// wheel through the normal routing, which preserves (at, seq) order
	// because the held event always has the smaller seq.
	single event
	hasOne bool

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
	l1pos  int  // consumption cursor within the current level-1 bucket
	l1     [wheelSize][]event
	l1bits [wheelSize / 64]uint64

	l2     [l2Size][]event
	l2bits [l2Size / 64]uint64

	overflow heap4
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

// init carves every bucket's initial capacity out of one contiguous
// slab, so a fresh engine reaches the zero-allocation steady state
// immediately instead of paying one allocation per bucket as simulated
// time first sweeps the wheel. Buckets that outgrow the slab reallocate
// individually and keep the larger capacity across resets.
func (q *eventq) init() {
	const bcap = 8
	slab := make([]event, (wheelSize+l2Size)*bcap)
	for i := range q.l1 {
		q.l1[i] = slab[:0:bcap]
		slab = slab[bcap:]
	}
	for i := range q.l2 {
		q.l2[i] = slab[:0:bcap]
		slab = slab[bcap:]
	}
}

func (q *eventq) len() int { return q.count }

// push inserts ev, routing by distance from the current chunk. The
// caller guarantees ev.at is not in the past.
func (q *eventq) push(ev event) {
	if q.count == 0 {
		q.minCache, q.minOK = ev.at, true
		q.count = 1
		q.single, q.hasOne = ev, true
		return
	}
	if q.hasOne {
		held := q.single
		q.single, q.hasOne = event{}, false
		q.route(held)
	}
	if q.minOK && ev.at < q.minCache {
		q.minCache = ev.at
	}
	q.count++
	q.route(ev)
}

// route files ev into the wheel level (or overflow heap) its distance
// from the current chunk selects.
func (q *eventq) route(ev event) {
	c := chunkOf(ev.at)
	cur := chunkOf(q.l1base)
	switch {
	case c == cur:
		i := int(ev.at) & wheelMask
		q.l1[i] = append(q.l1[i], ev)
		q.l1bits[i>>6] |= 1 << uint(i&63)
	case c-cur < l2Size:
		i := int(c) & l2Mask
		q.l2[i] = append(q.l2[i], ev)
		q.l2bits[i>>6] |= 1 << uint(i&63)
	default:
		q.overflow.push(ev)
	}
}

// pop removes and returns the earliest (at, seq) event. The caller
// guarantees the queue is non-empty. Consumed slots are zeroed so the
// bucket arenas do not retain callbacks or tasks.
func (q *eventq) pop() event {
	if q.hasOne {
		ev := q.single
		q.single, q.hasOne = event{}, false
		q.count = 0
		q.minOK = false
		// Reposition the cursor to the popped time so later pushes keep
		// routing into level 1. Every bucket is empty, so pointing the
		// cursor anywhere is sound; the popped time is what keeps the
		// wheel's "current chunk" tracking simulated time.
		q.l1base = chunkOf(ev.at) << wheelBits
		q.l1cur = int(ev.at) & wheelMask
		q.l1pos = 0
		return ev
	}
	b := q.l1[q.l1cur]
	if q.l1pos >= len(b) {
		q.advance()
		b = q.l1[q.l1cur]
	}
	ev := b[q.l1pos]
	b[q.l1pos] = event{}
	q.l1pos++
	q.count--
	if q.l1pos == len(b) {
		// Bucket drained: recycle it eagerly so emptiness checks and
		// same-time re-pushes see a clean slate.
		q.l1[q.l1cur] = b[:0]
		q.l1pos = 0
		q.l1bits[q.l1cur>>6] &^= 1 << uint(q.l1cur&63)
		q.minOK = false
	} else {
		q.minCache, q.minOK = q.l1base+Time(q.l1cur), true
	}
	return ev
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
		i := int(chunkOf(ev.at)) & l2Mask
		q.l2[i] = append(q.l2[i], ev)
		q.l2bits[i>>6] |= 1 << uint(i&63)
	}
	// Cascade the new current chunk's level-2 bucket into level 1.
	q.l1base = next << wheelBits
	li := int(next) & l2Mask
	b2 := q.l2[li]
	for k, ev := range b2 {
		i := int(ev.at) & wheelMask
		q.l1[i] = append(q.l1[i], ev)
		q.l1bits[i>>6] |= 1 << uint(i&63)
		b2[k] = event{}
	}
	q.l2[li] = b2[:0]
	q.l2bits[li>>6] &^= 1 << uint(li&63)
	i, ok := q.scanL1(0)
	if !ok {
		panic("sim: event queue corrupted: advance found no event")
	}
	q.l1cur, q.l1pos = i, 0
}

// scanL1 returns the first non-empty level-1 bucket at or after index
// from.
func (q *eventq) scanL1(from int) (int, bool) {
	if from >= wheelSize {
		return 0, false
	}
	w := from >> 6
	word := q.l1bits[w] &^ (1<<uint(from&63) - 1)
	for {
		if word != 0 {
			return w<<6 + bits.TrailingZeros64(word), true
		}
		w++
		if w >= wheelSize/64 {
			return 0, false
		}
		word = q.l1bits[w]
	}
}

// scanL2 returns the nearest chunk strictly after cur that has a
// non-empty level-2 bucket. Bucket indexes are chunk numbers mod l2Size
// and the window is narrower than l2Size, so circular bitmap distance
// from cur+1 is chunk distance.
func (q *eventq) scanL2(cur Time) (Time, bool) {
	start := int(cur+1) & l2Mask
	w, bit := start>>6, uint(start&63)
	word := q.l2bits[w] &^ (1<<bit - 1)
	for i := 0; i < l2Size/64+1; i++ {
		if word != 0 {
			idx := (w&(l2Size/64-1))<<6 + bits.TrailingZeros64(word)
			dist := Time((idx - start) & l2Mask)
			return cur + 1 + dist, true
		}
		w++
		word = q.l2bits[w&(l2Size/64-1)]
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
// hasEventAtOrBefore slow path, kept out of line so the predicate
// itself inlines into StallFor).
func (q *eventq) refreshMin() Time {
	q.minCache, q.minOK = q.computeMin(), true
	return q.minCache
}

// computeMin finds the earliest queued time by scanning the wheel. The
// caller guarantees count > 0. Level-1 bucket times are their index;
// the nearest level-2 bucket mixes times within its chunk and must be
// scanned; the overflow heap only matters when both wheels are empty
// (every level-2 window chunk precedes every overflow event).
func (q *eventq) computeMin() Time {
	if q.hasOne {
		return q.single.at
	}
	if i, ok := q.scanL1(q.l1cur); ok {
		return q.l1base + Time(i)
	}
	if next, ok := q.scanL2(chunkOf(q.l1base)); ok {
		min := Time(0)
		for k, ev := range q.l2[int(next)&l2Mask] {
			if k == 0 || ev.at < min {
				min = ev.at
			}
		}
		return min
	}
	return q.overflow.minAt()
}

// reset empties the queue, zeroing every used slot so the bucket arenas
// retain no callbacks, and rewinds the cursors to time zero. Bucket
// capacities are kept for the next run.
func (q *eventq) reset() {
	for i := range q.l1 {
		clearEvents(q.l1[i])
		q.l1[i] = q.l1[i][:0]
	}
	for i := range q.l2 {
		clearEvents(q.l2[i])
		q.l2[i] = q.l2[i][:0]
	}
	q.l1bits = [wheelSize / 64]uint64{}
	q.l2bits = [l2Size / 64]uint64{}
	for q.overflow.len() > 0 {
		q.overflow.pop()
	}
	q.count = 0
	q.single, q.hasOne = event{}, false
	q.l1base, q.l1cur, q.l1pos = 0, 0, 0
	q.minCache, q.minOK = 0, false
}

func clearEvents(ev []event) {
	for i := range ev {
		ev[i] = event{}
	}
}
