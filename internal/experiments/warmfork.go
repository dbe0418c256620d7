package experiments

import (
	"context"
	"sync"
	"sync/atomic"
)

// memoCap bounds a memo, in points: a quick-scale result is 1-7 KB and
// the largest working set in the tree (bench's service_mix) is 270.
const memoCap = 512

// WarmForkCache is the point-result memo. The simulator is
// deterministic, so whoever holds one simulates each distinct point once
// and answers every later request for it — from another figure of the
// triplet (figures 9 and 10 share every lock-traffic point, figure 8's
// largest size repeats them), another job, another shard — with the
// stored PointResult. The key is the whole Point with Label cleared, so
// warm_fork, metrics_interval and breakdown variants never alias.
// Memoized results share their metrics and breakdown snapshots;
// consumers treat them as read-only.
//
// A memo belongs to one owner for its lifetime — a Service (all its
// jobs), a service.BatchExecutor (one coherencesim invocation), a bare
// fleet.Coordinator — and is never process-global: a library caller that
// sets neither Options.Memo nor Options.Forks simulates everything, which
// is what the engine benchmarks measure. Past memoCap entries the oldest
// is evicted; its next request re-simulates to the same bytes.
//
// The name dates from when only warm-forked sweeps were memoized; it
// stays until the benchmark-definition PR (frozen bench/ files use it).
type WarmForkCache struct {
	mu      sync.Mutex
	entries map[Point]*memoEntry // keyed by the point with Label cleared
	order   []Point              // the keys of entries, oldest first

	hits, misses, servedCycles atomic.Uint64
}

// memoEntry is one point's slot: res and err are written once by the
// goroutine that created the entry, before it closes done.
type memoEntry struct {
	done chan struct{}
	res  PointResult
	err  error
}

// NewWarmForkCache returns an empty result memo.
func NewWarmForkCache() *WarmForkCache {
	return &WarmForkCache{entries: make(map[Point]*memoEntry)}
}

// run returns pt's memoized outcome, electing the first caller to
// simulate it with build while concurrent callers for the same point
// wait. A simulation is never started after ctx is cancelled and never
// interrupted once running (matching runner.MapCtx's between-jobs
// cancellation), so an entry exists only for a simulation that runs to
// completion; a cancelled caller gets the zero result and leaves no
// entry behind for a later batch sharing the cache. Callers discard
// partial sweeps, as runner.MapCtx's contract already requires. Eviction
// only unlinks an entry: its builder and waiters still get its result.
func (c *WarmForkCache) run(ctx context.Context, pt Point, build func() (PointResult, error)) (PointResult, error) {
	pt.Label = ""
	c.mu.Lock()
	e := c.entries[pt]
	if e == nil {
		if ctx.Err() != nil {
			c.mu.Unlock()
			return PointResult{}, nil
		}
		e = c.addLocked(pt)
		c.mu.Unlock()
		e.res, e.err = build()
		close(e.done)
		return e.res, e.err
	}
	c.mu.Unlock()
	select {
	case <-e.done:
		c.hits.Add(1)
		c.servedCycles.Add(e.res.SimCycles)
		return e.res, e.err
	case <-ctx.Done():
		return PointResult{}, nil
	}
}

// addLocked links a new entry for pt, counting the miss and evicting the
// oldest entry past memoCap. Callers hold c.mu.
func (c *WarmForkCache) addLocked(pt Point) *memoEntry {
	e := &memoEntry{done: make(chan struct{})}
	c.entries[pt] = e
	if c.order = append(c.order, pt); len(c.order) > memoCap {
		delete(c.entries, c.order[0])
		c.order = c.order[1:]
	}
	c.misses.Add(1)
	return e
}

// Lookup answers pt from a finished entry, counting the hit, and never
// waits; with Store, the memo of an owner that simulates elsewhere.
func (c *WarmForkCache) Lookup(pt Point) (PointResult, bool) {
	pt.Label = ""
	c.mu.Lock()
	e := c.entries[pt]
	c.mu.Unlock()
	if e != nil {
		select {
		case <-e.done:
			if e.err == nil {
				c.hits.Add(1)
				c.servedCycles.Add(e.res.SimCycles)
				return e.res, true
			}
		default:
		}
	}
	return PointResult{}, false
}

// Store files res as pt's result, counting a miss (someone simulated
// it); a point already held keeps its entry.
func (c *WarmForkCache) Store(pt Point, res PointResult) {
	pt.Label = ""
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.entries[pt] == nil {
		e := c.addLocked(pt)
		e.res = res
		close(e.done)
	}
}

// Checkpoints reports how many distinct points the memo holds, finished
// or being simulated.
func (c *WarmForkCache) Checkpoints() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats reports lifetime counters: requests answered with a stored
// result, requests that simulated, and the answered ones' cycles.
func (c *WarmForkCache) Stats() (hits, misses, servedCycles uint64) {
	return c.hits.Load(), c.misses.Load(), c.servedCycles.Load()
}
