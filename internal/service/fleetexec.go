package service

import (
	"context"
	"fmt"
	"sync"
	"time"

	"coherencesim/internal/experiments"
	"coherencesim/internal/fleet"
	"coherencesim/internal/runner"
)

// NewFleetExec layers fleet distribution over a base executor. Jobs run
// through base — the normal local path — unless live workers are
// registered when the job starts, in which case the sweep executes with
// a dispatcher that fans its points across the fleet. The dispatcher
// returns results in submission order (the coordinator's contract), so
// the rendered document is byte-identical to base's at any worker count
// and under any failure interleaving. A dispatched sweep reuses results
// through the same memo as a local one: coord is built on it
// (fleet.Config.Memo) and asks it before it leases anything.
func NewFleetExec(base ExecFunc, coord *fleet.Coordinator) ExecFunc {
	if coord == nil {
		return base
	}
	return func(ctx context.Context, spec JobSpec, simWorkers int, progress func(runner.Snapshot)) (*JobResult, error) {
		if coord.LiveWorkers() == 0 {
			return base(ctx, spec, simWorkers, progress)
		}
		session := &fleetSession{ctx: ctx, coord: coord, progress: progress, start: time.Now()}
		res, err := executeSpec(ctx, spec, simWorkers, progress, session.dispatch, nil)
		if err != nil {
			return nil, err
		}
		if serr := session.err(); serr != nil {
			return nil, serr
		}
		return res, nil
	}
}

// fleetSession adapts one job's sweep batches onto the coordinator and
// synthesizes runner-style progress snapshots from shard completions.
type fleetSession struct {
	ctx      context.Context
	coord    *fleet.Coordinator
	progress func(runner.Snapshot)
	start    time.Time

	mu        sync.Mutex
	jobsDone  int
	jobsTotal int
	simCycles uint64
	firstErr  error
}

// dispatch is the experiments.PointDispatcher: it blocks until the
// batch is fully assembled. On failure it records the error and returns
// the zero-filled slice; executeSpec's caller discards the document via
// err(). (The PointDispatcher contract has no error channel because the
// local pool cannot fail; the session carries it out of band.)
func (s *fleetSession) dispatch(pts []experiments.Point) []experiments.PointResult {
	s.mu.Lock()
	s.jobsTotal += len(pts)
	s.mu.Unlock()
	results, err := s.coord.RunPoints(s.ctx, pts, func(i int, r experiments.PointResult) { s.onDone(pts[i].Label, r) })
	if err != nil {
		s.mu.Lock()
		if s.firstErr == nil {
			s.firstErr = fmt.Errorf("fleet dispatch: %w", err)
		}
		s.mu.Unlock()
		return make([]experiments.PointResult, len(pts))
	}
	return results
}

// onDone observes the result of the point labelled label — a shard
// completion or an answer from the coordinator's memo, in any order —
// and emits a cumulative progress snapshot naming it, mirroring the
// local pool's reporting.
func (s *fleetSession) onDone(label string, r experiments.PointResult) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobsDone++
	s.simCycles += r.SimCycles
	if s.progress != nil {
		// Under the lock, as the pool calls its hook: one at a time and
		// in order (the scheduler's hook keeps the previous cycle count).
		s.progress(runner.Snapshot{
			JobsDone:  s.jobsDone,
			JobsTotal: s.jobsTotal,
			SimCycles: s.simCycles,
			Elapsed:   time.Since(s.start),
			Label:     label,
		})
	}
}

func (s *fleetSession) err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.firstErr
}
