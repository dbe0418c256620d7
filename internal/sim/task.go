package sim

// Task is the engine's unit of resumable control: something the run
// loop can hand the simulated instant to and that hands it back by
// returning. A simulated processor embeds a Task and sets resume to its
// step-loop re-entry function. Parking is just Park() + returning out
// of the resume call; waking is a direct call back into resume — no
// goroutines, no channels, no scheduler hand-off.
//
// Engine bookkeeping (live/blocked counts, the tail-dispatch gate, the
// processed-event budget) lives entirely at the Task level.
type Task struct {
	e       *Engine
	name    string
	resume  func()
	wake    func() // the queued start or wake-up, bound once
	stalled bool
}

// Init prepares an embedded Task for use on engine e. resume is invoked
// by the engine — always from engine context — each time the task is
// started or woken; it must return once the task parks or completes.
// Init may be called again to re-arm a pooled task after Engine.Reset.
// The task must not be copied after Init: its queued callback holds its
// address.
func (t *Task) Init(e *Engine, name string, resume func()) {
	t.e = e
	t.name = name
	t.resume = resume
	t.stalled = false
	if t.wake == nil {
		// The run loop's direct dispatch of the task: its first start
		// (not parked) or a scheduled wake-up (parked). The run loop
		// cleared tail; this task is now the tail dispatch.
		t.wake = func() {
			t.e.tail = t
			if t.stalled {
				t.stalled = false
				t.e.blocked--
			}
			t.resume()
		}
	}
}

// Begin registers the task as live and schedules its first resume at
// the current time. End must be called when the task's program
// completes.
func (t *Task) Begin() {
	t.e.live++
	t.e.At(t.e.now, t.wake)
}

// End unregisters a live task. After End the task may be re-armed with
// Init/Begin.
func (t *Task) End() {
	t.e.live--
}

// Park marks the task as blocked awaiting a Wake. The caller must then
// return out of its resume invocation: parking is this call plus
// unwinding.
func (t *Task) Park() {
	t.stalled = true
	t.e.blocked++
}

// Wake resumes a parked task at the current simulated time by calling
// straight back into its resume function. It must be called from engine
// context (an event callback or another task's resume), not reentrantly
// from the task itself. Waking a task that is not parked panics.
func (t *Task) Wake() {
	if !t.stalled {
		panic("sim: waking non-stalled task " + t.name)
	}
	t.stalled = false
	t.e.blocked--
	if t.e.tail != t {
		// Nested dispatch: we are being woken from inside an event
		// callback or another task's resume, so interrupted work is
		// pending beneath us at the current time. Neither we nor, after
		// we park, the frames below may use the StallFor fast path.
		t.e.tail = nil
	}
	t.resume()
}

// StallFor suspends the task for d cycles. It returns true when the
// stall completed in place and the caller just keeps running; false
// means the wake is queued and the task parked, so the caller must
// unwind (its resume will be re-entered at now+d).
//
// Fast path: when this task is the run loop's tail dispatch (no
// interrupted engine callback pending beneath it, see Engine.tail) and
// no queued event sorts before the wake-up would — the queue is empty
// or holds nothing at or before now+d — no other code can observe the
// stall, so the engine state is advanced in place: the clock to now+d,
// plus the processed count the elided wake event would have added,
// keeping event counts byte-identical. Any event at or before now+d —
// even one tying at exactly now+d, which was queued first and must run
// first — forces the full park/wake path.
func (t *Task) StallFor(d Time) bool {
	e := t.e
	if e.tail == t && !e.pq.hasEventAtOrBefore(e.now+d) {
		e.processed++
		e.now += d
		return true
	}
	e.At(e.now+d, t.wake)
	t.Park()
	return false
}
