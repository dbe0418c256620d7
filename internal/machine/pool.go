package machine

import (
	"coherencesim/internal/mem"
	"coherencesim/internal/mesh"
	"coherencesim/internal/runner"
)

// Machine reuse: building a Machine allocates the engine, mesh, memory
// arena, caches, directory, and processor structures — a few
// hundred allocations that dwarf a short run's steady-state cost when a
// sweep executes thousands of points. Acquire/Release keep finished
// machines on a keyed free list (runner.Reuse) shared by the sweep's
// workers, so each worker resets a structurally compatible machine
// instead of rebuilding one. Reset restores the exact post-New state,
// so pooled runs are byte-identical to fresh-machine runs; the reuse
// tests here and in internal/workload compare the two.

// poolKey is the structural-compatibility key: exactly the fields
// Machine.Reset gates on. Protocol, thresholds, ablation switches, and
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

var pool = runner.NewReuse[poolKey, *Machine](0)

// Acquire returns a machine configured per cfg: a pooled one reset to
// cfg when a structurally compatible machine is idle, else a fresh one.
func Acquire(cfg Config) *Machine {
	if m, ok := pool.Get(keyOf(cfg)); ok {
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
	pool.Put(keyOf(m.cfg), m)
}
