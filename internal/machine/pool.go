package machine

import (
	"sync"

	"coherencesim/internal/mem"
	"coherencesim/internal/mesh"
)

// Machine reuse: building a Machine allocates the engine, mesh, memory
// arena, caches, directory, and processor structures — a few
// hundred allocations that dwarf a short run's steady-state cost when a
// sweep executes thousands of points. Acquire/Release keep finished
// machines on a free list per structural shape, shared by the sweep's
// workers, so each worker resets a structurally compatible machine
// instead of rebuilding one. Reset restores the exact post-New state,
// so pooled runs are byte-identical to fresh-machine runs; the reuse
// tests here and in internal/workload compare the two.

// poolKey is the structural-compatibility key, the one Machine.Reset
// gates on. Protocol, thresholds, ablation switches, and
// observability sinks are reset-mutable and deliberately excluded, so
// e.g. a WI point can reuse a machine that last ran PU.
type poolKey struct {
	procs      int
	cacheBytes int
	wbEntries  int
	mesh       mesh.Config
	mem        mem.Config
}

func keyOf(cfg Config) poolKey {
	return poolKey{
		procs:      cfg.Procs,
		cacheBytes: cfg.CacheBytes,
		wbEntries:  cfg.WBEntries,
		mesh:       cfg.Mesh,
		mem:        cfg.Mem,
	}
}

// idlePerShape bounds the idle machines kept per shape: enough to keep
// every worker of a typical sweep warm, while a sweep over many shapes
// cannot pin unbounded memory.
const idlePerShape = 4

// The free list: idle machines per shape, the most recently released
// last, shared by every goroutine under poolMu.
var (
	poolMu sync.Mutex
	idle   = make(map[poolKey][]*Machine)
)

// take removes and returns the most recently released idle machine of
// shape k, or nil.
func take(k poolKey) *Machine {
	poolMu.Lock()
	defer poolMu.Unlock()
	list := idle[k]
	if len(list) == 0 {
		return nil
	}
	m := list[len(list)-1]
	list[len(list)-1] = nil
	idle[k] = list[:len(list)-1]
	return m
}

// put keeps m as an idle machine of shape k, or drops it (for the
// garbage collector) when the shape already has idlePerShape.
func put(k poolKey, m *Machine) {
	poolMu.Lock()
	defer poolMu.Unlock()
	if len(idle[k]) < idlePerShape {
		idle[k] = append(idle[k], m)
	}
}

// Acquire returns a machine configured per cfg: a pooled one reset to
// cfg when a structurally compatible machine is idle, else a fresh one.
func Acquire(cfg Config) *Machine {
	if m := take(keyOf(cfg)); m != nil {
		if m.Reset(cfg) {
			return m
		}
		// Structurally keyed machines always reset unless the engine
		// was left mid-run; drop such a machine rather than reuse it.
	}
	return New(cfg)
}

// Release returns a finished machine to the pool for reuse. The caller
// must be done with the machine and everything reachable from it
// (results are value copies, so retaining a Result is fine). Releasing
// nil is a no-op.
func (m *Machine) Release() {
	if m == nil {
		return
	}
	put(keyOf(m.cfg), m)
}
