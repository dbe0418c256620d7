package workload

import (
	"reflect"
	"runtime"
	"testing"

	"coherencesim/internal/machine"
	"coherencesim/internal/proto"
)

// TestLockRunSteadyStateAllocs bounds the allocation cost of one full
// quick-scale lock run on a pooled machine. With machine construction
// amortized away by reuse and the protocol data path, the fences and the
// classifier allocation-free, what remains is per-run scaffolding: the
// lock construct and result assembly — 22 objects at this scale, where a
// fresh-machine run costs ~16000. A regression that reintroduces
// per-operation allocation blows through the bound immediately (800
// iterations x even one object each).
func TestLockRunSteadyStateAllocs(t *testing.T) {
	p := Params{Procs: 8, Protocol: proto.CU, Iterations: 800, HoldCycles: 50}
	for i := 0; i < 2; i++ {
		LockLoop(p, MCS) // warm the machine pool and every free list
	}
	if avg := testing.AllocsPerRun(5, func() { LockLoop(p, MCS) }); avg > 40 {
		t.Errorf("pooled quick-scale lock run allocates %.0f objects, want <= 40", avg)
	}

	// The same at the paper's machine size, plain and with the stall
	// breakdown on: 32 queue nodes and their names, result assembly and —
	// traced — the tracer and its snapshot (measured 70 and 106 objects,
	// 4 608 and 22 984 bytes). One object per lock release would add 1600
	// to either; the span and stall buffers a breakdown point never reads
	// would add 2.1 MB to the traced run.
	if raceDetector {
		return // fmt's printer pool leaks there; the P = 8 bound above has the headroom
	}
	p = DefaultLockParams(proto.CU, 32)
	p.Iterations = 1600
	for _, c := range []struct {
		breakdown    bool
		limit, bytes float64
	}{{false, 88, 9300}, {true, 212, 46000}} {
		p.Breakdown = c.breakdown
		run := func() { LockLoop(p, MCS) }
		for i := 0; i < 2; i++ {
			run()
		}
		if avg := testing.AllocsPerRun(5, run); avg > c.limit {
			t.Errorf("pooled 32-processor lock run (breakdown %v) allocates %.0f objects, want <= %.0f", c.breakdown, avg, c.limit)
		}
		if avg := bytesPerRun(5, run); avg > c.bytes {
			t.Errorf("pooled 32-processor lock run (breakdown %v) allocates %.0f bytes, want <= %.0f", c.breakdown, avg, c.bytes)
		}
	}
}

// bytesPerRun is the heap a call of f allocates, averaged over runs
// calls on one processor as testing.AllocsPerRun counts objects.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestWorkloadsIdenticalWithAndWithoutReuse pins the sweep-level
// guarantee: running the synthetic programs through pooled machines
// produces byte-identical results to fresh-machine runs.
func TestWorkloadsIdenticalWithAndWithoutReuse(t *testing.T) {
	p := Params{Procs: 6, Protocol: proto.CU, Iterations: 600, HoldCycles: 50}
	runAll := func() []any {
		var out []any
		for _, k := range []LockKind{Ticket, MCS, UpdateConsciousMCS} {
			out = append(out, LockLoop(p, k))
		}
		out = append(out, BarrierLoop(Params{Procs: 6, Protocol: proto.PU, Iterations: 40}, Tree))
		out = append(out, ReductionLoop(Params{Procs: 6, Protocol: proto.WI, Iterations: 40}, Parallel))
		return out
	}

	acquireMachine = machine.New
	fresh := runAll()
	acquireMachine = machine.Acquire

	pooled := runAll()  // populates the pool, may or may not hit it
	pooled2 := runAll() // guaranteed to run on recycled machines

	for i := range fresh {
		if !reflect.DeepEqual(fresh[i], pooled[i]) || !reflect.DeepEqual(fresh[i], pooled2[i]) {
			t.Fatalf("workload %d diverged between fresh and pooled machines", i)
		}
	}
}

// TestRandomPauseOnReusedMachine: a processor builds its random source
// on first use, so a pooled machine arrives with it unbuilt (the last
// run drew nothing) or advanced (it drew). A random-pause run on either
// — and a plain run after one that drew — matches a fresh machine.
func TestRandomPauseOnReusedMachine(t *testing.T) {
	p := Params{Procs: 7, Protocol: proto.PU, Iterations: 280, HoldCycles: 50}
	var used []*machine.Machine
	track := func(acquire func(machine.Config) *machine.Machine) func(machine.Config) *machine.Machine {
		return func(cfg machine.Config) *machine.Machine {
			m := acquire(cfg)
			used = append(used, m)
			return m
		}
	}
	defer func() { acquireMachine = machine.Acquire }()

	// Fresh machines, released to the pool in this order: the plain
	// run's, which never drew, is the next one handed out.
	acquireMachine = track(machine.New)
	freshPause, freshPlain := RunLockLoop(p, MCS, RandomPause), LockLoop(p, MCS)
	acquireMachine = track(machine.Acquire)
	for i, c := range []struct {
		name          string
		fresh, pooled LockResult
	}{
		{"random pause after a run that drew nothing", freshPause, RunLockLoop(p, MCS, RandomPause)},
		{"random pause after a run that drew", freshPause, RunLockLoop(p, MCS, RandomPause)},
		{"plain run after a run that drew", freshPlain, LockLoop(p, MCS)},
	} {
		if used[2+i] != used[1] {
			t.Fatalf("%s: ran on another machine than the plain fresh run's", c.name)
		}
		if !reflect.DeepEqual(c.fresh, c.pooled) {
			t.Errorf("%s: diverged from a fresh machine:\nfresh:  %+v\npooled: %+v", c.name, c.fresh.Result, c.pooled.Result)
		}
	}
}
