package experiments

import (
	"encoding/json"

	"coherencesim/internal/store"
)

// memoCap bounds a memo, in points: a quick-scale result is 1-7 KB and
// the largest working set in the tree (bench's service_mix) is 270.
const memoCap = 512

// WarmForkCache is the point memo: store.Chain at point granularity,
// keyed by the unlabeled Point (so warm_fork, metrics_interval and
// breakdown variants never alias). The simulator is deterministic, so
// whoever holds one simulates each distinct point once and answers every
// later request for it — from another figure of the triplet (figures 9
// and 10 share every lock-traffic point, figure 8's largest size repeats
// them), another job, another shard. Past memoCap points the least
// recently used is evicted and re-simulates to the same bytes.
//
// A memo belongs to one owner for its lifetime — a Service (all its
// jobs), a service.BatchExecutor (one coherencesim invocation), a bare
// fleet.Coordinator — and is never process-global: a library caller that
// sets neither Options.Memo nor Options.Forks simulates everything, which
// is what the engine benchmarks measure.
//
// The name dates from when only warm-forked sweeps were memoized; it
// stays until the benchmark-definition PR (frozen bench/ files use it).
type WarmForkCache struct {
	*store.Chain[Point, PointResult]
}

// NewWarmForkCache returns an empty memo held in memory only.
func NewWarmForkCache() *WarmForkCache { return NewPointMemo(PointStore(nil)) }

// NewPointMemo returns an empty memo over a durable layer: Get answers
// what memory does not hold from it and Put writes through to it, while
// a local sweep's Do never touches it. Hits save the points' cycles.
func NewPointMemo(durable store.Durable[Point, PointResult]) *WarmForkCache {
	one := func(PointResult) int64 { return 1 }
	return &WarmForkCache{store.NewChain(memoCap, one, PointResult.SimulatedCycles, durable)}
}

// PointStore adapts st to a memo's durable layer: a result is stored as
// its JSON under the point's content address. A nil st is no layer.
func PointStore(st *store.Store) (d store.Durable[Point, PointResult]) {
	if st != nil {
		d.Load = func(pt Point) (r PointResult, ok bool) {
			body, status, ok := st.Get(pt.Key())
			return r, ok && status == "done" && json.Unmarshal(body, &r) == nil
		}
		d.Save = func(pt Point, r PointResult) {
			if body, err := json.Marshal(r); err == nil {
				_ = st.Put(pt.Key(), "done", body) // a failed write costs a later answer, not this result
			}
		}
	}
	return d
}

// Checkpoints reports how many distinct points the memo holds, finished
// or being simulated.
func (c *WarmForkCache) Checkpoints() int { return c.Stats().Entries }
