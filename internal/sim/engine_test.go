package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("Now() = %d, want 0", e.Now())
	}
	if e.pq.len() != 0 {
		t.Fatalf("%d events queued, want 0", e.pq.len())
	}
}

func TestScheduleRunsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var got []Time
	for _, d := range []Time{30, 10, 20} {
		d := d
		e.Schedule(d, func() { got = append(got, e.Now()) })
	}
	e.Run()
	want := []Time{10, 20, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event order %v, want %v", got, want)
		}
	}
}

func TestSameTimeEventsRunInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("tie-broken order %v not FIFO", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var trace []Time
	e.Schedule(1, func() {
		trace = append(trace, e.Now())
		e.Schedule(2, func() { trace = append(trace, e.Now()) })
		e.Schedule(0, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	want := []Time{1, 1, 3}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At() in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

// Property: any multiset of (delay, id) events runs in nondecreasing time
// order with FIFO tie-break, regardless of insertion order.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			i, d := i, Time(d)
			e.Schedule(d, func() { got = append(got, rec{e.Now(), i}) })
		}
		e.Run()
		if len(got) != len(delays) {
			return false
		}
		// Expected: stable sort of (delay, insertion index).
		want := make([]rec, len(delays))
		for i, d := range delays {
			want[i] = rec{Time(d), i}
		}
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// startTask begins a task that runs steps in order, one resume at a
// time: a step returns false after it parked (the next resume continues
// with the following step) and true to fall through to it at once.
func startTask(e *Engine, name string, steps ...func(t *Task) bool) *Task {
	t := &Task{}
	pc := 0
	t.Init(e, name, func() {
		for pc < len(steps) {
			step := steps[pc]
			pc++
			if !step(t) {
				return
			}
		}
		t.End()
	})
	t.Begin()
	return t
}

// parkForever parks with nothing scheduled to wake the task.
func parkForever(t *Task) bool {
	t.Park()
	return false
}

func TestTaskStartsAtCurrentTime(t *testing.T) {
	e := NewEngine()
	var trace []string
	startTask(e, "worker", func(*Task) bool {
		trace = append(trace, "start")
		e.Schedule(10, func() {})
		return true
	})
	e.Schedule(5, func() { trace = append(trace, "event5") })
	e.Run()
	if len(trace) != 2 || trace[0] != "start" || trace[1] != "event5" {
		t.Fatalf("trace = %v", trace)
	}
	if e.Live() != 0 {
		t.Fatalf("Live() = %d, want 0", e.Live())
	}
}

func TestTaskStallFor(t *testing.T) {
	e := NewEngine()
	var wakeTimes []Time
	stall := func(d Time) func(*Task) bool {
		return func(tk *Task) bool { return tk.StallFor(d) }
	}
	record := func(*Task) bool {
		wakeTimes = append(wakeTimes, e.Now())
		return true
	}
	startTask(e, "sleeper", stall(7), record, stall(3), record)
	e.Run()
	if len(wakeTimes) != 2 || wakeTimes[0] != 7 || wakeTimes[1] != 10 {
		t.Fatalf("wakeTimes = %v, want [7 10]", wakeTimes)
	}
}

func TestTaskParkWake(t *testing.T) {
	e := NewEngine()
	resumed := Time(0)
	tk := startTask(e, "waiter", parkForever, func(*Task) bool {
		resumed = e.Now()
		return true
	})
	e.Schedule(42, tk.Wake)
	e.Run()
	if resumed != 42 {
		t.Fatalf("resumed at %d, want 42", resumed)
	}
}

// The task's wake callback queued for an absolute time (what StallFor's
// slow path and Begin schedule) resumes the parked task at exactly that
// time.
func TestTaskWakeAt(t *testing.T) {
	e := NewEngine()
	resumed := Time(0)
	startTask(e, "waiter", func(tk *Task) bool {
		e.At(99, tk.wake)
		tk.Park()
		return false
	}, func(*Task) bool {
		resumed = e.Now()
		return true
	})
	e.Run()
	if resumed != 99 {
		t.Fatalf("resumed at %d, want 99", resumed)
	}
}

func TestWakingRunningTaskPanics(t *testing.T) {
	e := NewEngine()
	startTask(e, "awake", func(tk *Task) bool {
		defer func() {
			if recover() == nil {
				t.Error("Wake on a task that is not parked did not panic")
			}
		}()
		tk.Wake()
		return true
	})
	e.Run()
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	startTask(e, "stuck", parkForever) // nobody will wake it
	defer func() {
		if recover() == nil {
			t.Error("Run() did not panic on deadlock")
		}
	}()
	e.Run()
}

func TestManyTasksInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var trace []string
		for i := 0; i < 8; i++ {
			i := i
			var steps []func(*Task) bool
			for k := 0; k < 3; k++ {
				k := k
				steps = append(steps,
					func(tk *Task) bool { return tk.StallFor(Time(1 + (i+k)%4)) },
					func(*Task) bool {
						trace = append(trace, string(rune('a'+i))+string(rune('0'+k)))
						return true
					})
			}
			startTask(e, "p", steps...)
		}
		e.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != 24 || len(b) != 24 {
		t.Fatalf("trace lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic trace at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

func TestTaskStalledAndName(t *testing.T) {
	e := NewEngine()
	tk := startTask(e, "x", func(tk *Task) bool {
		if tk.stalled {
			t.Error("stalled while running")
		}
		return tk.StallFor(1)
	})
	e.Schedule(1, func() {
		if !tk.stalled {
			t.Error("not stalled while parked behind an earlier event")
		}
	})
	e.Run()
	if tk.stalled || e.Live() != 0 {
		t.Errorf("after Run: stalled = %v, Live() = %d", tk.stalled, e.Live())
	}
	if tk.name != "x" {
		t.Errorf("name = %q", tk.name)
	}
}

// TestStallForDoesNotAllocate pins the two ways a fixed-length stall
// completes: in place when nothing else is queued, and by queueing a
// wake, parking and being resumed when a one-event-per-cycle ticker
// denies the fast path. Neither may allocate once the queue's buckets
// have their working capacity (the engine is reset between runs, so
// every run sweeps the same buckets).
func TestStallForDoesNotAllocate(t *testing.T) {
	const stalls = 1000
	for _, c := range []struct {
		name   string
		ticker bool
		d      Time
	}{
		{"fast path", false, 1},
		{"park and resume", true, 2},
	} {
		e := NewEngine()
		var (
			tk      Task
			i       int
			entries int // times the run loop entered the task
			done    bool
			tick    func()
		)
		tick = func() {
			if !done {
				e.Schedule(1, tick)
			}
		}
		tk.Init(e, "stall", func() {
			entries++
			for i < stalls {
				i++
				if !tk.StallFor(c.d) {
					return
				}
			}
			done = true
			tk.End()
		})
		run := func() {
			if !e.Reset() {
				t.Fatal("engine not quiescent between runs")
			}
			i, entries, done = 0, 0, false
			if c.ticker {
				e.Schedule(1, tick)
			}
			tk.Begin()
			e.Run()
		}
		if allocs := testing.AllocsPerRun(10, run); allocs != 0 {
			t.Errorf("%s: %d stalls allocate %.1f objects, want 0", c.name, stalls, allocs)
		}
		// In place, the task is entered once; parked, once more per stall.
		want := 1
		if c.ticker {
			want += stalls
		}
		if entries != want {
			t.Errorf("%s: task entered %d times, want %d; the run no longer covers this path", c.name, entries, want)
		}
	}
}

// Random workload stress: schedule a random DAG of events and check the
// simulation clock never goes backwards.
func TestClockMonotonic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := NewEngine()
	last := Time(0)
	var spawn func(depth int)
	spawn = func(depth int) {
		if depth > 6 {
			return
		}
		n := rng.Intn(3)
		for i := 0; i < n; i++ {
			d := Time(rng.Intn(50))
			e.Schedule(d, func() {
				if e.Now() < last {
					t.Errorf("clock went backwards: %d < %d", e.Now(), last)
				}
				last = e.Now()
				spawn(depth + 1)
			})
		}
	}
	spawn(0)
	e.Run()
}

func TestProcessedCounts(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Schedule(2, func() {
		if e.Processed() != 4 { // the events at 0, 1, 2 and this one
			t.Errorf("Processed() = %d inside the fourth event, want 4", e.Processed())
		}
	})
	e.Run()
	if e.Processed() != 6 {
		t.Fatalf("Processed() = %d, want 6", e.Processed())
	}
}

// Elide stands for a no-op that was scheduled and ran: it counts as the
// event would have, and it leaves the clock, the queue, the order of
// other events and the tail dispatch alone — a task that elides can
// still stall in place.
func TestElideMatchesScheduledNoOp(t *testing.T) {
	run := func(elide bool) (processed uint64, order []int) {
		e := NewEngine()
		e.Schedule(5, func() { order = append(order, 1) })
		if elide {
			e.Elide()
		} else {
			e.Schedule(3, func() {})
		}
		e.Schedule(5, func() { order = append(order, 2) })
		e.Run()
		return e.processed, order
	}
	procA, orderA := run(false)
	procB, orderB := run(true)
	if procA != 3 || procB != procA {
		t.Fatalf("scheduled no-op: processed %d; elided: processed %d; want 3 twice", procA, procB)
	}
	if len(orderB) != 2 || orderB[0] != orderA[0] || orderB[1] != orderA[1] {
		t.Fatalf("event order %v with the no-op elided, %v with it scheduled", orderB, orderA)
	}

	e := NewEngine()
	e.Schedule(40, func() {})
	var task Task
	stalledInPlace := false
	task.Init(e, "elider", func() {
		now, queued, processed := e.now, e.pq.len(), e.processed
		e.Elide()
		if e.now != now || e.pq.len() != queued || e.tail != &task {
			t.Errorf("Elide moved now %d→%d, queue %d→%d or the tail", now, e.now, queued, e.pq.len())
		}
		if e.processed != processed+1 {
			t.Errorf("Elide: processed %d→%d, want +1", processed, e.processed)
		}
		stalledInPlace = task.StallFor(10)
		task.End()
	})
	task.Begin()
	e.Run()
	if !stalledInPlace {
		t.Fatal("StallFor parked after Elide: the tail dispatch was disturbed")
	}
}
