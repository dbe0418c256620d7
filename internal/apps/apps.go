// Package apps provides small application kernels built on the machine
// and construct libraries — the workload classes whose synchronization
// behaviour the paper's synthetic programs distill:
//
//   - WorkQueue: a lock-protected shared task queue (lock-bound, the
//     figure-8 regime);
//   - Jacobi: a bulk-synchronous grid relaxation with halo exchange
//     (barrier-bound, the figure-11 regime);
//   - NBodyMax: a Barnes-Hut-style step loop whose global force bound is
//     a max-reduction (reduction-bound, the figure-14 regime; the paper's
//     Section 2.3 cites exactly this Splash2 Barnes-Hut idiom).
//
// Each kernel takes the construct implementation to use, runs to
// completion on a fresh machine, functionally verifies its own output,
// and reports both application-level and machine-level metrics, so the
// experiments layer can answer the paper's practical question: which
// construct should this application use under this protocol?
package apps

import (
	"fmt"

	"coherencesim/internal/machine"
	"coherencesim/internal/proto"
	"coherencesim/internal/sim"
	"coherencesim/internal/workload"
)

// Result couples an application's verdict with the machine metrics.
type Result struct {
	machine.Result
	App     string
	Correct bool
	// Work is an app-specific unit count (tasks, sweeps, steps) for
	// normalizing latency.
	Work        int
	CyclesPerOp float64
}

func finish(app string, res machine.Result, correct bool, work int) Result {
	return Result{
		Result:      res,
		App:         app,
		Correct:     correct,
		Work:        work,
		CyclesPerOp: float64(res.Cycles) / float64(work),
	}
}

// currentValue reads a word's authoritative post-run value: the memory
// copy, unless a processor holds the block dirty (WI ownership or PU
// retention).
func currentValue(m *machine.Machine, a machine.Addr) uint32 {
	v := m.Peek(a)
	block := uint32(a / 64)
	word := int(a%64) / 4
	for q := 0; q < m.Procs(); q++ {
		if ln := m.System().Cache(q).Lookup(block); ln != nil && ln.Dirty {
			v = ln.Data[word]
		}
	}
	return v
}

// WorkQueueParams configures the shared-queue kernel.
type WorkQueueParams struct {
	Protocol proto.Protocol
	Procs    int
	Lock     workload.LockKind
	Tasks    int      // total tasks
	TaskWork sim.Time // compute cycles per task
}

// WorkQueue runs a self-scheduling task loop: processors repeatedly take
// the next index from a shared cursor under the lock and execute the
// task. Correctness: every task executed exactly once.
func WorkQueue(p WorkQueueParams) Result {
	m := machine.Acquire(machine.DefaultConfig(p.Protocol, p.Procs))
	defer m.Release()
	l := workload.NewLock(m, p.Lock)
	cursor := m.Alloc("cursor", 4, 0)
	// done[t] counts executions of task t (one block per counter group
	// of 16 tasks; contention on these is part of the workload).
	doneWords := (p.Tasks + 15) / 16 * 16
	done := m.Alloc("done", doneWords*4, -1)

	res := m.RunProgram(&workQueueProgram{
		l: l, cursor: cursor, done: done, tasks: p.Tasks, work: p.TaskWork,
	})

	correct := true
	for t := 0; t < p.Tasks; t++ {
		if currentValue(m, done+machine.Addr(4*t)) != 1 {
			correct = false
			break
		}
	}
	return finish("workqueue", res, correct, p.Tasks)
}

// JacobiParams configures the grid-relaxation kernel.
type JacobiParams struct {
	Protocol proto.Protocol
	Procs    int
	Barrier  workload.BarrierKind
	Sweeps   int
	// CellsPerProc is each processor's strip width in words (one cache
	// block holds 16).
	CellsPerProc int
}

// Jacobi runs a 1-D relaxation: every sweep each processor averages its
// strip using its neighbours' edge cells, then crosses the barrier.
// Correctness: the computation matches a sequential replay.
func Jacobi(p JacobiParams) Result {
	m := machine.Acquire(machine.DefaultConfig(p.Protocol, p.Procs))
	defer m.Release()
	b := workload.NewBarrier(m, p.Barrier)
	strips := make([]machine.Addr, p.Procs)
	for i := range strips {
		strips[i] = m.Alloc(fmt.Sprintf("strip%d", i), p.CellsPerProc*4, i)
		for c := 0; c < p.CellsPerProc; c++ {
			m.Poke(strips[i]+machine.Addr(4*c), uint32(i*p.CellsPerProc+c))
		}
	}
	edge := func(i, c int) machine.Addr { return strips[i] + machine.Addr(4*c) }

	res := m.RunProgram(&jacobiProgram{
		b: b, strips: strips, cells: p.CellsPerProc, sweeps: p.Sweeps, procs: p.Procs,
	})

	// Sequential replay for verification.
	ref := make([][]uint32, p.Procs)
	for i := range ref {
		ref[i] = make([]uint32, p.CellsPerProc)
		for c := range ref[i] {
			ref[i][c] = uint32(i*p.CellsPerProc + c)
		}
	}
	last := p.CellsPerProc - 1
	for s := 0; s < p.Sweeps; s++ {
		lvs := make([]uint32, p.Procs)
		rvs := make([]uint32, p.Procs)
		for i := 0; i < p.Procs; i++ {
			lvs[i] = ref[(i+p.Procs-1)%p.Procs][last]
			rvs[i] = ref[(i+1)%p.Procs][0]
		}
		for i := 0; i < p.Procs; i++ {
			ref[i][0] = (lvs[i] + ref[i][0]) / 2
			ref[i][last] = (ref[i][last] + rvs[i]) / 2
		}
	}
	correct := true
	for i := 0; i < p.Procs && correct; i++ {
		if currentValue(m, edge(i, 0)) != ref[i][0] ||
			currentValue(m, edge(i, last)) != ref[i][last] {
			correct = false
		}
	}
	return finish("jacobi", res, correct, p.Sweeps)
}

// NBodyParams configures the reduction-bound step-loop kernel.
type NBodyParams struct {
	Protocol  proto.Protocol
	Procs     int
	Reduction workload.ReductionKind
	Steps     int
	BodyWork  sim.Time // force computation per step
}

// NBodyMax runs a Barnes-Hut-style step loop: each step every processor
// computes its local force bound, the machine-wide maximum is reduced
// (figure 6/7 style), and every processor uses it to pick the shared
// time step. Correctness: all processors observe the true maximum each
// step.
func NBodyMax(p NBodyParams) Result {
	m := machine.Acquire(machine.DefaultConfig(p.Protocol, p.Procs))
	defer m.Release()
	red := workload.NewReducer(m, p.Reduction)
	gate := m.NewMagicBarrier()

	prog := &nbodyProgram{
		red: red, gate: gate, steps: p.Steps, procs: p.Procs,
		work: p.BodyWork, correct: true,
	}
	res := m.RunProgram(prog)
	return finish("nbodymax", res, prog.correct, p.Steps)
}
