package cache

import "fmt"

// CacheState is a deep copy of one cache's restorable contents: the
// touched prefix of the line array, the geometry and the raw activity
// stats. The watcher is deliberately absent — it is a parked processor's
// callback, and snapshots are only taken at quiescence, when no
// processor is parked.
type CacheState struct {
	frames int
	lines  []Line
	stats  Stats
}

// SnapshotState captures the cache's restorable contents. It requires
// the watcher-free quiescent state.
func (c *Cache) SnapshotState() CacheState {
	if c.wfn != nil {
		panic(fmt.Sprintf("cache: SnapshotState with a live watcher on block %d", c.wblock))
	}
	return CacheState{
		frames: c.frames,
		lines:  append([]Line(nil), c.lines...),
		stats:  c.stats,
	}
}

// RestoreState loads a snapshot into c. The target must have the same
// geometry (frame count) as the snapshot's source and be freshly built
// or Reset (no frames touched yet), so it is grown to the snapshot's.
func (c *Cache) RestoreState(st CacheState) {
	if c.frames != st.frames || len(c.lines) != 0 {
		panic(fmt.Sprintf("cache: RestoreState of %d frames onto %d with %d touched; want equal geometry, none touched",
			st.frames, c.frames, len(c.lines)))
	}
	if n := len(st.lines); n > 0 {
		c.grow(n - 1)
		copy(c.lines, st.lines)
	}
	c.stats = st.stats
}
