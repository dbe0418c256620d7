package sim

import "fmt"

// EngineState is the restorable state of a quiescent engine: the clock
// and the processed-event count. A quiescent engine has no live tasks,
// no parked tasks, and an empty event queue, so these two words fully
// determine its future behaviour — restoring them onto another quiescent
// engine makes that engine continue the simulation byte-identically.
type EngineState struct {
	Now       Time
	Processed uint64
}

// assertQuiescent panics unless the engine is between runs with nothing
// pending. Snapshot and restore are only sound at quiescence: an event
// in flight or a parked task holds state (closures, heap positions) that
// no flat copy can carry across machines.
func (e *Engine) assertQuiescent(op string) {
	if e.running || e.live != 0 || e.blocked != 0 || e.pq.len() != 0 {
		panic(fmt.Sprintf("sim: %s on a non-quiescent engine (running=%v live=%d blocked=%d pending=%d)",
			op, e.running, e.live, e.blocked, e.pq.len()))
	}
}

// SnapshotState captures the engine's restorable state. The engine must
// be quiescent (between runs, queue drained).
func (e *Engine) SnapshotState() EngineState {
	e.assertQuiescent("SnapshotState")
	return EngineState{Now: e.now, Processed: e.processed}
}

// RestoreState loads a snapshot onto a quiescent engine, positioning its
// clock and event count where the captured run left them.
func (e *Engine) RestoreState(st EngineState) {
	e.assertQuiescent("RestoreState")
	e.now = st.Now
	e.processed = st.Processed
	e.tail = nil
}
