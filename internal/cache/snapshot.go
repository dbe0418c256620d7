package cache

import "fmt"

// CacheState is a deep copy of one cache's restorable contents: the
// line array and the raw activity stats. Watchers are deliberately absent — a watcher is a parked
// processor's callback, and snapshots are only taken at quiescence,
// when no processor is parked. watchBlock entries are dead state once
// their frame's watcher list is empty (Watch overwrites the tag on
// registration), so they are not copied either.
type CacheState struct {
	lines []Line
	stats Stats
}

// assertNoWatchers panics if any frame still holds spin watchers; both
// snapshot and restore require the watcher-free quiescent state.
func (c *Cache) assertNoWatchers(op string) {
	for i := range c.watchers {
		if len(c.watchers[i]) != 0 {
			panic(fmt.Sprintf("cache: %s with live watchers on frame %d", op, i))
		}
	}
}

// SnapshotState captures the cache's restorable contents.
func (c *Cache) SnapshotState() CacheState {
	c.assertNoWatchers("SnapshotState")
	return CacheState{
		lines: append([]Line(nil), c.lines...),
		stats: c.stats,
	}
}

// RestoreState loads a snapshot into c. The target must have the same
// geometry (frame count) as the snapshot's source and no live watchers.
func (c *Cache) RestoreState(st CacheState) {
	c.assertNoWatchers("RestoreState")
	if len(c.lines) != len(st.lines) {
		panic(fmt.Sprintf("cache: RestoreState geometry mismatch (%d frames vs %d)", len(c.lines), len(st.lines)))
	}
	copy(c.lines, st.lines)
	c.stats = st.stats
}
