package cache

import "fmt"

// refCache is the dense frame array the slot table replaced, kept as the
// oracle for FuzzFrameTable: every frame up to the high-water mark is a
// full Line, indexed by frame number.
type refCache struct {
	node   int
	frames int
	lines  []Line
	mask   uint32
	wfn    func()
	wblock uint32
	stats  Stats
}

func newRefCache(node, sizeBytes int) *refCache {
	n := sizeBytes / BlockBytes
	c := &refCache{node: node, frames: n}
	if n > 1 && n&(n-1) == 0 {
		c.mask = uint32(n - 1)
	}
	return c
}

func (c *refCache) Reset() {
	clear(c.lines)
	c.lines = c.lines[:0]
	c.wfn, c.wblock = nil, 0
	c.stats = Stats{}
}

func (c *refCache) frameIndex(block uint32) int {
	if c.mask != 0 {
		return int(block & c.mask)
	}
	return int(block) % c.frames
}

func (c *refCache) grow(idx int) {
	n := idx + 1
	if n <= cap(c.lines) {
		c.lines = c.lines[:n]
		return
	}
	ns := make([]Line, n, min(max(n, 2*cap(c.lines)), c.frames))
	copy(ns, c.lines)
	c.lines = ns
}

func (c *refCache) Lookup(block uint32) *Line {
	if idx := c.frameIndex(block); uint(idx) < uint(len(c.lines)) {
		if ln := &c.lines[idx]; ln.State != Invalid && ln.Block == block {
			return ln
		}
	}
	return nil
}

func (c *refCache) Present(block uint32) bool { return c.Lookup(block) != nil }

func (c *refCache) Victim(block uint32) (Line, bool) {
	idx := c.frameIndex(block)
	if uint(idx) < uint(len(c.lines)) && c.lines[idx].State != Invalid && c.lines[idx].Block != block {
		return c.lines[idx], true
	}
	return Line{}, false
}

func (c *refCache) Install(block uint32, data []uint32, state State) (victim Line, evicted bool) {
	idx := c.frameIndex(block)
	if idx >= len(c.lines) {
		c.grow(idx)
	}
	ln := &c.lines[idx]
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

func (c *refCache) Invalidate(block uint32) (old Line, was bool) {
	if old, was = c.Flush(block); was {
		c.stats.Invalidates++
		c.FireWatchers(block)
	}
	return old, was
}

func (c *refCache) ApplyUpdate(block uint32, word int, v uint32) bool {
	ln := c.Lookup(block)
	if ln == nil {
		return false
	}
	ln.Data[word] = v
	c.stats.UpdatesIn++
	c.FireWatchers(block)
	return true
}

func (c *refCache) Watch(block uint32, fn func()) {
	if c.wfn != nil {
		panic(fmt.Sprintf("cache %d: Watch of block %d while block %d is watched", c.node, block, c.wblock))
	}
	c.wfn, c.wblock = fn, block
}

func (c *refCache) Watched(block uint32) bool { return c.wfn != nil && c.wblock == block }

func (c *refCache) FireWatchers(block uint32) {
	if fn := c.wfn; fn != nil && c.wblock == block {
		c.wfn = nil
		fn()
	}
}

func (c *refCache) Flush(block uint32) (old Line, was bool) {
	ln := c.Lookup(block)
	if ln == nil {
		return Line{}, false
	}
	old = *ln
	ln.State = Invalid
	ln.Dirty = false
	return old, true
}

func (c *refCache) ForEachValid(fn func(ln *Line)) {
	for i := range c.lines {
		if c.lines[i].State != Invalid {
			fn(&c.lines[i])
		}
	}
}
