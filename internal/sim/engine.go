// Package sim provides the deterministic discrete-event simulation engine
// that underlies the multiprocessor model.
//
// The engine runs queued callbacks in time order, same-time callbacks in
// the order they were scheduled, so simulations are bit-reproducible.
// Simulated processors run as resumable tasks that the run loop
// re-enters by direct call (see Task). Everything runs on the caller's
// goroutine, so simulation state needs no locking and executes
// deterministically.
//
// The event core is built for throughput: a queued event is a time and
// a callback in one slot arena linked into a two-level timing wheel,
// with a 4-ary-heap overflow (no interface boxing, no per-event
// allocation in steady state — see eventq and heap4); a task wake-up is
// the task's own callback, bound once in Task.Init, and fixed-length
// stalls bypass the queue entirely when no earlier event could observe
// them (see Task.StallFor). DESIGN.md ("Engine internals & performance")
// documents why none of these paths can reorder events.
package sim

import "fmt"

// Time is simulated time in processor cycles.
type Time = uint64

// Engine is a discrete-event simulator; create one with NewEngine.
type Engine struct {
	pq      eventq
	now     Time
	running bool

	// processed counts events executed, for simulator performance
	// reporting. Stalls short-circuited by the StallFor fast path and
	// events accounted by Elide count too, as the event they stand for.
	processed uint64

	// tasks that are currently parked waiting to be woken.
	blocked int
	// live tasks that have been started and have not finished.
	live int

	// tail is the task the run loop dispatched directly with no engine
	// callback frame pending beneath it — the only situation in which
	// StallFor's in-place fast path is sound. The run loop clears it
	// before every event and a task's wake callback sets it; a task woken
	// from inside another frame clears it, so any task with interrupted
	// work beneath it always takes the full park/unpark path.
	tail *Task
}

// NewEngine returns an empty engine at time 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Schedule arranges for fn to run delay cycles from now. Events scheduled
// for the same time run in scheduling order.
func (e *Engine) Schedule(delay Time, fn func()) {
	e.At(e.now+delay, fn)
}

// At arranges for fn to run at absolute time t. Scheduling in the past is
// a programming error and panics.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d in the past (now %d)", t, e.now))
	}
	e.pq.push(t, fn)
}

// Elide stands for an event the caller has proved unobservable (its
// handler would only bump a count the caller bumps itself): nothing is
// queued, but it is counted as processed now, as the event would have
// been.
func (e *Engine) Elide() { e.processed++ }

// deadlocked panics with the blocked-task diagnostic. Called only when
// the queue is empty.
func (e *Engine) deadlocked() {
	panic(fmt.Sprintf("sim: deadlock at time %d: %d task(s) blocked with no pending events", e.now, e.blocked))
}

// Run executes events until the queue is empty. If tasks are still
// blocked when the queue drains, the simulation has deadlocked and Run
// panics with a diagnostic.
func (e *Engine) Run() {
	e.running = true
	defer func() { e.running = false }()
	for e.pq.len() > 0 {
		at, fn := e.pq.pop()
		e.now = at
		e.processed++
		e.tail = nil
		fn()
	}
	if e.blocked > 0 {
		e.deadlocked()
	}
}

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Live reports the number of tasks that have been started on the engine
// and have not yet finished.
func (e *Engine) Live() int { return e.live }

// Reset returns the engine to its initial state — time zero, an empty
// queue, and a zero processed count — so a fully built simulation can be
// rerun without constructing a new engine. The queue's slot arena and
// heap array are kept for the next run. Reset refuses (returning false, leaving the engine
// untouched) while the engine is running or while any task is live or
// blocked: a parked task would be orphaned mid-program.
func (e *Engine) Reset() bool {
	if e.running || e.live != 0 || e.blocked != 0 {
		return false
	}
	// reset zeroes every used slot, so events left behind by a run that
	// panicked do not retain callbacks in the arena.
	e.pq.reset()
	e.now, e.processed = 0, 0
	e.tail = nil
	return true
}
