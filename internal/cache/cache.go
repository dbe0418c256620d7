// Package cache models each node's data cache and write buffer.
//
// Parameters follow the paper: a 64-KB direct-mapped data cache with
// 64-byte blocks (16 four-byte words) and a 4-entry write buffer. Cache
// lines carry the data values themselves, so a processor spinning on a
// stale copy observes exactly the staleness the coherence protocol
// permits. Lines also carry the competitive-update counter.
//
// The package additionally provides a one-shot watcher used for spin-wait
// compression: a simulated processor spinning on a location parks and is
// woken when a coherence event (update, invalidation, drop) touches the
// watched block — the only moments at which the spun-on value can change.
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
//
// A frame names its line through a slot table: slot[frame] indexes the
// compact lines array, which holds one line per frame the run installed
// into after lines[0], a sentinel that stays Invalid, so an unused
// frame's slot (0) reads as a miss. The slot table reaches only the
// run's high-water frame: blocks are allocated densely from 0, so a
// frame at or beyond its length is Invalid. Invariant: both arrays are
// zero in [len, cap), so regrowing within capacity is a reslice.
type Cache struct {
	node   int
	frames int // geometry: frame count
	slot   []int32
	lines  []Line
	mask   uint32 // frames-1 when a power of two, else 0 (use modulo)

	// wfn is the one watcher, on block wblock. Only the cache's own
	// processor watches, and it stays parked until the watcher fires, so
	// there is never a second. Keying on the block, not the frame, keeps
	// events on a later occupant of the frame from waking it (a flushed
	// block's watcher lingers — flush does not fire).
	wfn    func()
	wblock uint32

	stats Stats

	// Optional sampled observability counters, shared across all caches
	// of a machine; now supplies the simulated clock.
	mHits   *metrics.Counter
	mMisses *metrics.Counter
	now     func() sim.Time
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
	c := &Cache{node: node, frames: n}
	if n > 1 && n&(n-1) == 0 {
		c.mask = uint32(n - 1)
	}
	return c
}

// Reset returns the cache to its post-New state, clearing only the
// frames the last run touched and keeping every backing array for reuse.
// Instrumentation is detached; a reusing machine re-attaches its own.
func (c *Cache) Reset() {
	clear(c.slot)
	c.slot = c.slot[:0]
	clear(c.lines)
	c.lines = c.lines[:min(len(c.lines), 1)]
	c.wfn, c.wblock = nil, 0
	c.stats = Stats{}
	c.mHits, c.mMisses, c.now = nil, nil, nil
}

// frameIndex returns the direct-mapped frame number for a block.
func (c *Cache) frameIndex(block uint32) int {
	if c.mask != 0 {
		return int(block & c.mask)
	}
	return int(block) % c.frames
}

// NumLines returns the number of frames the geometry provides.
func (c *Cache) NumLines() int { return c.frames }

// growTo returns s lengthened to n: a reslice within capacity, else a
// copy into a doubled array no larger than limit.
func growTo[T any](s []T, n, limit int) []T {
	if n > cap(s) {
		ns := make([]T, len(s), min(max(n, 2*cap(s)), limit))
		copy(ns, s)
		s = ns
	}
	return s[:n]
}

// Lookup returns the line holding block, or nil on miss. It does not
// count hit/miss statistics; callers decide what constitutes an access.
// A frame beyond the high-water mark is Invalid; that comparison is
// also the bounds check, and an uninstalled frame names the Invalid
// sentinel, so the hot path pays no extra branch.
func (c *Cache) Lookup(block uint32) *Line {
	if idx := c.frameIndex(block); uint(idx) < uint(len(c.slot)) {
		if ln := &c.lines[c.slot[idx]]; ln.State != Invalid && ln.Block == block {
			return ln
		}
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
	if idx := c.frameIndex(block); uint(idx) < uint(len(c.slot)) {
		if ln := &c.lines[c.slot[idx]]; ln.State != Invalid && ln.Block != block {
			return *ln, true
		}
	}
	return Line{}, false
}

// Install places a block into its frame with the given data and state,
// returning a copy of the evicted line (if a different valid block
// occupied the frame). The evicted block's watchers fire: from the
// spinner's perspective a replacement is a visibility event.
func (c *Cache) Install(block uint32, data []uint32, state State) (victim Line, evicted bool) {
	idx := c.frameIndex(block)
	if idx >= len(c.slot) {
		c.slot = growTo(c.slot, idx+1, c.frames)
	}
	s := c.slot[idx]
	if s == 0 { // the frame's first line, after the sentinel
		s = int32(max(len(c.lines), 1))
		c.lines = growTo(c.lines, int(s)+1, c.frames+1)
		c.slot[idx] = s
	}
	ln := &c.lines[s]
	if ln.State != Invalid && ln.Block != block {
		victim, evicted = *ln, true
		c.stats.Evictions++
		c.FireWatchers(ln.Block)
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
	if old, was = c.Flush(block); was {
		c.stats.Invalidates++
		c.FireWatchers(block)
	}
	return old, was
}

// ApplyUpdate writes an externally produced value for one word into ln,
// a line Lookup returned (update-protocol delivery), and wakes watchers.
func (c *Cache) ApplyUpdate(ln *Line, word int, v uint32) {
	ln.Data[word] = v
	c.stats.UpdatesIn++
	c.FireWatchers(ln.Block)
}

// Watch registers a one-shot callback invoked the next time block is
// invalidated, updated, or evicted. Used for spin-wait compression; a
// cache holds one watcher at a time, and a second Watch panics.
func (c *Cache) Watch(block uint32, fn func()) {
	if c.wfn != nil {
		panic(fmt.Sprintf("cache %d: Watch of block %d while block %d is watched", c.node, block, c.wblock))
	}
	c.wfn, c.wblock = fn, block
}

// Watched reports whether a spinner is parked on the block. A watched
// block is being continuously referenced by the (compressed) spin loop,
// which protocol code must treat as reference activity — e.g. the
// competitive-update counter of a watched block does not accumulate.
func (c *Cache) Watched(block uint32) bool { return c.wfn != nil && c.wblock == block }

// FireWatchers invokes (then clears) the block's watcher. Install,
// Invalidate and ApplyUpdate call it; protocol code calls it for
// visibility changes those do not cover (e.g. an atomic operation's
// reply refreshing a word). The watcher is cleared before it runs, so
// it may watch again.
func (c *Cache) FireWatchers(block uint32) {
	if fn := c.wfn; fn != nil && c.wblock == block {
		c.wfn = nil
		fn()
	}
}

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

// ForEachValid calls fn for every valid line in frame order (used by
// whole-cache flush, whose order reaches the output).
func (c *Cache) ForEachValid(fn func(ln *Line)) {
	for _, s := range c.slot {
		if ln := &c.lines[s]; ln.State != Invalid {
			fn(ln)
		}
	}
}
