package cache

// WBEntry is one pending write in the write buffer.
type WBEntry struct {
	Addr Addr
	Val  uint32
}

// WriteBuffer is the per-processor FIFO write buffer (paper: 4 entries).
// Writes enter the buffer in 1 cycle; the memory stage drains entries in
// order, one outstanding write transaction at a time. Reads bypass queued
// writes, forwarding the newest buffered value for a matching address.
//
// Entries live in a fixed ring allocated once at construction, so the
// push/drain cycle on the write path never allocates.
type WriteBuffer struct {
	buf  []WBEntry // ring storage, len == capacity
	head int       // index of the oldest entry
	n    int       // number of queued entries
	// draining marks that the head entry's transaction is in flight.
	draining bool
}

// NewWriteBuffer returns an empty buffer with the given capacity.
func NewWriteBuffer(capacity int) *WriteBuffer {
	if capacity <= 0 {
		panic("cache: write buffer capacity must be positive")
	}
	return &WriteBuffer{buf: make([]WBEntry, capacity)}
}

// Reset empties the buffer in place for machine reuse.
func (wb *WriteBuffer) Reset() {
	wb.head, wb.n = 0, 0
	wb.draining = false
}

// Full reports whether a new write would stall the processor.
func (wb *WriteBuffer) Full() bool { return wb.n >= len(wb.buf) }

// Empty reports whether no writes are queued.
func (wb *WriteBuffer) Empty() bool { return wb.n == 0 }

// Push appends a write. Pushing into a full buffer panics; the caller
// must stall the processor instead.
func (wb *WriteBuffer) Push(a Addr, v uint32) {
	if wb.Full() {
		panic("cache: push into full write buffer")
	}
	wb.buf[(wb.head+wb.n)%len(wb.buf)] = WBEntry{a, v}
	wb.n++
}

// Head returns the oldest entry. Calling Head on an empty buffer panics.
func (wb *WriteBuffer) Head() WBEntry {
	if wb.Empty() {
		panic("cache: head of empty write buffer")
	}
	return wb.buf[wb.head]
}

// PopHead removes the oldest entry and clears the draining mark.
func (wb *WriteBuffer) PopHead() WBEntry {
	h := wb.Head()
	wb.head = (wb.head + 1) % len(wb.buf)
	wb.n--
	wb.draining = false
	return h
}

// Draining reports whether the head entry's transaction is in flight.
func (wb *WriteBuffer) Draining() bool { return wb.draining }

// MarkDraining flags the head entry as in flight.
func (wb *WriteBuffer) MarkDraining() {
	if wb.Empty() {
		panic("cache: draining empty write buffer")
	}
	wb.draining = true
}

// Forward returns the newest buffered value for address a, letting reads
// bypass writes without losing program-order semantics.
func (wb *WriteBuffer) Forward(a Addr) (uint32, bool) {
	for i := wb.n - 1; i >= 0; i-- {
		e := wb.buf[(wb.head+i)%len(wb.buf)]
		if e.Addr == a {
			return e.Val, true
		}
	}
	return 0, false
}
