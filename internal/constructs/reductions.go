package constructs

import (
	"fmt"

	"coherencesim/internal/machine"
	"coherencesim/internal/metrics"
)

// Reducer computes a machine-wide maximum from per-processor arguments,
// one episode per call (the paper's figures 6 and 7 compute max; the
// communication behaviour is operator-independent).
type Reducer interface {
	// FReduce pushes one reduction episode contributing p's local
	// value; the caller must have saved its resume PC and must return
	// the OpStatus unchanged. When the episode completes, its global
	// result is available at ResultAddr on every processor that reads
	// it.
	FReduce(p *machine.Proc, local uint32) machine.OpStatus
	// ResultAddr is the shared global cell holding the reduction result.
	ResultAddr() machine.Addr
}

// ParallelReducer is figure 6: every processor updates the global cell
// itself inside a critical section, then crosses a barrier. The lock and
// barrier are injected so the reduction experiments can use the
// zero-traffic magic primitives, isolating the reduction's own
// communication (Section 4.3).
type ParallelReducer struct {
	max     machine.Addr
	lock    Lock
	barrier Barrier
	lat     *metrics.Histogram
}

// NewParallelReducer allocates the global cell at node 0.
func NewParallelReducer(m *machine.Machine, name string, lock Lock, barrier Barrier) *ParallelReducer {
	m.MarkConstruct(name)
	return &ParallelReducer{
		max:     m.Alloc(name+".max", 4, 0),
		lock:    lock,
		barrier: barrier,
		lat:     m.MetricsHistogram(HistReduction),
	}
}

// ResultAddr returns the global cell.
func (r *ParallelReducer) ResultAddr() machine.Addr { return r.max }

// SequentialReducer is figure 7: each processor publishes its value in
// its own slot, and after a barrier processor 0 walks the slots and
// combines them into the global cell. Following the paper's data
// placement, each slot lives on its own cache block homed at its owning
// processor, so the combining pass's communication is per-element.
type SequentialReducer struct {
	max     machine.Addr
	slots   [64]machine.Addr
	barrier Barrier
	procs   int
	lat     *metrics.Histogram
}

// NewSequentialReducer allocates the global cell and per-processor slots.
func NewSequentialReducer(m *machine.Machine, name string, barrier Barrier) *SequentialReducer {
	m.MarkConstruct(name)
	r := &SequentialReducer{barrier: barrier, procs: m.Procs()}
	r.lat = m.MetricsHistogram(HistReduction)
	r.max = m.Alloc(name+".max", 4, 0)
	for i := 0; i < m.Procs(); i++ {
		r.slots[i] = m.Alloc(fmt.Sprintf("%s.local%d", name, i), 4, i)
	}
	return r
}

// ResultAddr returns the global cell.
func (r *SequentialReducer) ResultAddr() machine.Addr { return r.max }
