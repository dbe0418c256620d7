package sim

// heap4 is a 4-ary min-heap of typed events ordered by (at, seq): the
// timing wheel's overflow for events beyond its horizon. Events are
// stored by value in one backing array, so pushing and popping never box
// through interface{} and never allocate in steady state — the array's
// spare capacity acts as the event arena, and vacated slots are recycled
// by subsequent pushes. A 4-ary shape halves tree depth versus a binary
// heap, trading a few extra comparisons per level (cheap: the key is two
// integers) for far fewer cache-missing element moves.
//
// The sift loops compare only the 16-byte (at, seq) key and move a full
// event at most once per level; the ordering predicate is deliberately
// duplicated inline instead of being a named function, so the compiler
// keeps the loops free of calls.
type heap4 struct {
	ev []event
}

// event is a heap entry. Unlike the wheel's FIFO buckets, the heap needs
// seq, the push count, to keep same-time events in push order.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// len returns the number of queued events.
func (h *heap4) len() int { return len(h.ev) }

// minAt returns the earliest queued time. Callers must check len first.
func (h *heap4) minAt() Time { return h.ev[0].at }

// push inserts nev, recycling spare capacity from earlier pops.
func (h *heap4) push(nev event) {
	h.ev = append(h.ev, nev)
	ev := h.ev
	// Sift up.
	i := len(ev) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		pAt, pSeq := ev[parent].at, ev[parent].seq
		if pAt < nev.at || (pAt == nev.at && pSeq < nev.seq) {
			break
		}
		ev[i] = ev[parent]
		i = parent
	}
	ev[i] = nev
}

// pop removes and returns the minimum event. The vacated tail slot is
// zeroed so the arena does not retain the event's callback beyond its
// execution.
func (h *heap4) pop() event {
	ev := h.ev
	root := ev[0]
	n := len(ev) - 1
	last := ev[n]
	ev[n] = event{}
	h.ev = ev[:n]
	ev = h.ev
	if n > 0 {
		// Bottom-up replacement (Wegener's trick): percolate the root
		// hole down to a leaf along minimum children without comparing
		// against last (saving one comparison per level), then sift last
		// up from the leaf hole. last came from the leaf layer, so the
		// sift-up almost always stops immediately.
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			m := c
			mAt, mSeq := ev[c].at, ev[c].seq
			for j := c + 1; j < end; j++ {
				jAt, jSeq := ev[j].at, ev[j].seq
				if jAt < mAt || (jAt == mAt && jSeq < mSeq) {
					m, mAt, mSeq = j, jAt, jSeq
				}
			}
			ev[i] = ev[m]
			i = m
		}
		for i > 0 {
			parent := (i - 1) >> 2
			pAt, pSeq := ev[parent].at, ev[parent].seq
			if pAt < last.at || (pAt == last.at && pSeq < last.seq) {
				break
			}
			ev[i] = ev[parent]
			i = parent
		}
		ev[i] = last
	}
	return root
}
