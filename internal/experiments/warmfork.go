package experiments

import (
	"context"
	"sync"
)

// WarmForkCache memoizes the results of warm_fork points across an
// experiment batch. Many figures rerun the same (construct, protocol,
// size) simulation — figures 9 and 10 share every lock-traffic point,
// figure 8's largest size repeats them — and the simulator is
// deterministic, so with a cache attached (Options.Forks) each distinct
// point is simulated once, as warm-up and remainder on one machine
// (workload.TwoPhase*), and every later request returns the stored
// PointResult. Memoized results share their metrics and breakdown
// snapshots; consumers treat them as read-only.
//
// Two-phase runs are deterministic at any worker count but not
// byte-identical to default single-phase runs (the phase boundary
// re-synchronizes processors), so the cache is strictly opt-in and
// golden outputs of the default path are unaffected.
type WarmForkCache struct {
	mu      sync.Mutex
	entries map[Point]*memoEntry // keyed by the point with Label cleared
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
// partial sweeps, as runner.MapCtx's contract already requires.
func (c *WarmForkCache) run(ctx context.Context, pt Point, build func() (PointResult, error)) (PointResult, error) {
	pt.Label = ""
	c.mu.Lock()
	e := c.entries[pt]
	if e == nil {
		if ctx.Err() != nil {
			c.mu.Unlock()
			return PointResult{}, nil
		}
		e = &memoEntry{done: make(chan struct{})}
		c.entries[pt] = e
		c.mu.Unlock()
		e.res, e.err = build()
		close(e.done)
		return e.res, e.err
	}
	c.mu.Unlock()
	select {
	case <-e.done:
		return e.res, e.err
	case <-ctx.Done():
		return PointResult{}, nil
	}
}

// Checkpoints reports how many distinct points the cache has simulated
// or is simulating (diagnostics and tests).
func (c *WarmForkCache) Checkpoints() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
