// Package cache models each node's data cache and write buffer.
//
// Parameters follow the paper: a 64-KB direct-mapped data cache with
// 64-byte blocks (16 four-byte words) and a 4-entry write buffer. Cache
// lines carry the data values themselves, so a processor spinning on a
// stale copy observes exactly the staleness the coherence protocol
// permits. Lines also carry the competitive-update counter.
//
// The package additionally provides a one-shot watcher mechanism used for
// spin-wait compression: a simulated processor spinning on a location
// parks and is woken when a coherence event (update, invalidation, drop)
// touches the watched block — the only moments at which the spun-on value
// can change.
package cache

import (
	"fmt"

	"coherencesim/internal/metrics"
	"coherencesim/internal/sim"
)

// Fixed geometry of the simulated memory system.
const (
	WordBytes     = 4  // 32-bit words
	BlockBytes    = 64 // cache block size
	WordsPerBlock = BlockBytes / WordBytes
)

// Addr is a byte address in the simulated shared segment.
type Addr uint32

// BlockOf returns the cache-block number containing a.
func BlockOf(a Addr) uint32 { return uint32(a) / BlockBytes }

// WordOf returns the word index of a within its block.
func WordOf(a Addr) int { return int(uint32(a)%BlockBytes) / WordBytes }

// BlockBase returns the address of the first byte of block b.
func BlockBase(b uint32) Addr { return Addr(b * BlockBytes) }

// State is a cache line's coherence state. The same three states serve
// all protocols: under WI, Exclusive means dirty/owned; under PU,
// Exclusive is the "retained/private" optimization state; under CU,
// lines are only ever Shared.
type State uint8

const (
	Invalid State = iota
	Shared
	Exclusive
)

func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	}
	return fmt.Sprintf("State(%d)", uint8(s))
}

// Line is one direct-mapped cache frame.
type Line struct {
	Block   uint32 // block number held (valid only if State != Invalid)
	State   State
	Data    [WordsPerBlock]uint32
	Dirty   bool  // holds locally modified words (Exclusive only)
	Counter uint8 // competitive-update per-copy counter
}

// Stats counts cache-array activity (protocol-level categorization lives
// in internal/classify; these are raw mechanics).
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	Invalidates uint64
	UpdatesIn   uint64
}

// Cache is one node's direct-mapped data cache.
type Cache struct {
	node  int
	lines []Line
	mask  uint32 // len(lines)-1 when a power of two, else 0 (use modulo)

	// watchers is frame-indexed: a watcher is only ever registered on a
	// block the registering processor just accessed, so the watched block
	// occupies its frame at registration time, and every occupancy change
	// (install, invalidate) fires and clears the frame's list. watchBlock
	// records which block the frame's watchers belong to, so events on a
	// later occupant of the same frame cannot wake them (a flushed
	// block's watchers could otherwise linger — flush does not fire).
	watchers   [][]func()
	watchBlock []uint32

	stats Stats

	// Optional sampled observability counters, shared across all caches
	// of a machine; now supplies the simulated clock.
	mHits   *metrics.Counter
	mMisses *metrics.Counter
	now     func() sim.Time

	// fireScratch recycles the callback snapshot fire iterates over.
	fireScratch []func()
}

// Instrument attaches sampled hit/miss metric counters and a simulated
// clock source, so the observability layer can export cache hit/miss
// rates over simulated time.
func (c *Cache) Instrument(hits, misses *metrics.Counter, now func() sim.Time) {
	c.mHits, c.mMisses, c.now = hits, misses, now
}

// New builds a cache of the given total size in bytes. Size must be a
// multiple of the block size.
func New(node, sizeBytes int) *Cache {
	if sizeBytes <= 0 || sizeBytes%BlockBytes != 0 {
		panic(fmt.Sprintf("cache: invalid size %d", sizeBytes))
	}
	n := sizeBytes / BlockBytes
	c := &Cache{
		node:       node,
		lines:      make([]Line, n),
		watchers:   make([][]func(), n),
		watchBlock: make([]uint32, n),
	}
	if n > 1 && n&(n-1) == 0 {
		c.mask = uint32(n - 1)
	}
	return c
}

// Reset returns the cache to its post-New state (all lines invalid, no
// watchers, counters cleared) while keeping every
// backing array for reuse. Instrumentation is detached; a reusing
// machine re-attaches its own.
func (c *Cache) Reset() {
	clear(c.lines)
	for i := range c.watchers {
		ws := c.watchers[i]
		for j := range ws {
			ws[j] = nil
		}
		c.watchers[i] = ws[:0]
	}
	clear(c.watchBlock)
	c.stats = Stats{}
	c.mHits, c.mMisses, c.now = nil, nil, nil
}

// frameIndex returns the direct-mapped frame number for a block.
func (c *Cache) frameIndex(block uint32) int {
	if c.mask != 0 {
		return int(block & c.mask)
	}
	return int(block) % len(c.lines)
}

// NumLines returns the number of frames.
func (c *Cache) NumLines() int { return len(c.lines) }

// frame returns the direct-mapped frame for a block. The usual
// power-of-two frame count indexes with a mask instead of the integer
// division a modulo costs on this hot path.
func (c *Cache) frame(block uint32) *Line {
	return &c.lines[c.frameIndex(block)]
}

// Lookup returns the line holding block, or nil on miss. It does not
// count hit/miss statistics; callers decide what constitutes an access.
func (c *Cache) Lookup(block uint32) *Line {
	ln := c.frame(block)
	if ln.State != Invalid && ln.Block == block {
		return ln
	}
	return nil
}

// Present reports whether the block is cached in any valid state.
func (c *Cache) Present(block uint32) bool { return c.Lookup(block) != nil }

// CountHit / CountMiss record raw access outcomes.
func (c *Cache) CountHit() {
	c.stats.Hits++
	if c.now != nil {
		c.mHits.Add(c.now(), 1)
	}
}

func (c *Cache) CountMiss() {
	c.stats.Misses++
	if c.now != nil {
		c.mMisses.Add(c.now(), 1)
	}
}

// Victim returns a copy of the line that Install(block) would evict, and
// whether there is such a conflicting valid line.
func (c *Cache) Victim(block uint32) (Line, bool) {
	ln := c.frame(block)
	if ln.State != Invalid && ln.Block != block {
		return *ln, true
	}
	return Line{}, false
}

// Install places a block into its frame with the given data and state,
// returning a copy of the evicted line (if a different valid block
// occupied the frame). The evicted block's watchers fire: from the
// spinner's perspective a replacement is a visibility event.
func (c *Cache) Install(block uint32, data []uint32, state State) (victim Line, evicted bool) {
	ln := c.frame(block)
	if ln.State != Invalid && ln.Block != block {
		victim, evicted = *ln, true
		c.stats.Evictions++
		c.fire(ln.Block)
	}
	ln.Block = block
	ln.State = state
	ln.Dirty = false
	ln.Counter = 0
	copy(ln.Data[:], data)
	return victim, evicted
}

// Invalidate removes block from the cache (coherence invalidation or
// CU self-invalidation) and wakes watchers. It reports whether a valid
// copy was present and returns a copy of the line for write-back needs.
func (c *Cache) Invalidate(block uint32) (old Line, was bool) {
	ln := c.Lookup(block)
	if ln == nil {
		return Line{}, false
	}
	old = *ln
	ln.State = Invalid
	ln.Dirty = false
	c.stats.Invalidates++
	c.fire(block)
	return old, true
}

// ApplyUpdate writes an externally produced value for one word into the
// cached copy (update-protocol delivery) and wakes watchers. It reports
// whether the block was present.
func (c *Cache) ApplyUpdate(block uint32, word int, v uint32) bool {
	ln := c.Lookup(block)
	if ln == nil {
		return false
	}
	ln.Data[word] = v
	c.stats.UpdatesIn++
	c.fire(block)
	return true
}

// Watch registers a one-shot callback invoked the next time block is
// invalidated, updated, or evicted. Used for spin-wait compression.
func (c *Cache) Watch(block uint32, fn func()) {
	idx := c.frameIndex(block)
	if len(c.watchers[idx]) > 0 && c.watchBlock[idx] != block {
		// Cannot happen: watchers only register on the frame's current
		// occupant, and occupancy changes fire-and-clear the list.
		panic(fmt.Sprintf("cache: frame %d watched for block %d and %d simultaneously", idx, c.watchBlock[idx], block))
	}
	c.watchBlock[idx] = block
	c.watchers[idx] = append(c.watchers[idx], fn)
}

// Watched reports whether a spinner is parked on the block. A watched
// block is being continuously referenced by the (compressed) spin loop,
// which protocol code must treat as reference activity — e.g. the
// competitive-update counter of a watched block does not accumulate.
func (c *Cache) Watched(block uint32) bool {
	idx := c.frameIndex(block)
	return len(c.watchers[idx]) > 0 && c.watchBlock[idx] == block
}

// fire invokes (then clears) the block's watchers. The watcher list and
// a fire-time scratch copy both keep their backing arrays, so the
// park/notify cycle of spin compression does not allocate in steady
// state. Callbacks run from the scratch
// copy: one may re-register on the same block (appending to the now
// emptied list) without disturbing the iteration. A callback that fires
// watchers itself finds fireScratch checked out and allocates a fresh
// scratch — rare, and the deepest scratch is simply dropped.
func (c *Cache) fire(block uint32) {
	idx := c.frameIndex(block)
	ws := c.watchers[idx]
	if len(ws) == 0 || c.watchBlock[idx] != block {
		return
	}
	scratch := c.fireScratch
	c.fireScratch = nil
	scratch = append(scratch[:0], ws...)
	for i := range ws {
		ws[i] = nil
	}
	c.watchers[idx] = ws[:0]
	for _, fn := range scratch {
		fn()
	}
	for i := range scratch {
		scratch[i] = nil
	}
	c.fireScratch = scratch[:0]
}

// FireWatchers exposes watcher notification for protocol code that
// changes visibility in ways not covered by the methods above (e.g. an
// atomic operation's reply refreshing a word).
func (c *Cache) FireWatchers(block uint32) { c.fire(block) }

// Flush drops the block from the cache *without* firing watchers (the
// flushing processor is acting on its own line; there is nothing new to
// observe) and returns the old line for write-back decisions.
func (c *Cache) Flush(block uint32) (old Line, was bool) {
	ln := c.Lookup(block)
	if ln == nil {
		return Line{}, false
	}
	old = *ln
	ln.State = Invalid
	ln.Dirty = false
	return old, true
}

// ForEachValid calls fn for every valid line (used by whole-cache flush).
func (c *Cache) ForEachValid(fn func(ln *Line)) {
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			fn(&c.lines[i])
		}
	}
}
