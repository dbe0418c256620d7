package machine

import (
	"runtime"
	"testing"

	"coherencesim/internal/proto"
	"coherencesim/internal/sim"
	"coherencesim/internal/trace"
)

// These tests pin the zero-allocation property of the synchronization
// paths above the protocol: a fence that has to wait for acknowledgements
// and the magic lock/barrier hand-offs reuse their waiter lists and the
// processors' pre-bound wake callbacks.

// allocsPerRep runs mk(reps) as continuation phases on m and returns the
// allocations one repetition adds to a phase: a phase of 65 repetitions
// against a phase of one, so the per-phase constant (result assembly)
// cancels out. The warm-up is long because simulated time keeps
// advancing: every event-wheel bucket the wakes can land in has to reach
// its working capacity, not just the free lists and waiter lists.
func allocsPerRep(m *Machine, mk func(reps int) Program) float64 {
	long, short := mk(65), mk(1)
	for i := 0; i < 400; i++ {
		m.RunProgram(long)
	}
	many := testing.AllocsPerRun(10, func() { m.RunProgram(long) })
	one := testing.AllocsPerRun(10, func() { m.RunProgram(short) })
	return (many - one) / 64
}

func TestBlockedFenceDoesNotAllocate(t *testing.T) {
	for _, pr := range allProtocols() {
		m := newM(t, pr, 4)
		a := m.Alloc("shared", 4, 0)
		// Every processor reads the word (so a write has sharers to
		// notify), writes it and fences: the fence outlives the write
		// buffer and parks on the outstanding acknowledgements.
		mk := func(reps int) Program {
			return seq(repeat(reps,
				func(p *Proc, f *Frame) OpStatus { return p.FRead(a) },
				func(p *Proc, f *Frame) OpStatus { return p.FWrite(a, uint32(f.I0)) },
				func(p *Proc, f *Frame) OpStatus { return p.FFence() },
			))
		}
		if got := allocsPerRep(m, mk); got != 0 {
			t.Errorf("%v: a write+fence round allocates %.2f objects, want 0", pr, got)
		}
		var stalled bool
		for _, ps := range m.RunProgram(mk(1)).PerProc {
			stalled = stalled || ps.FenceStall > 0
		}
		if !stalled {
			t.Errorf("%v: no fence ever blocked; the test no longer covers the drain-waiter path", pr)
		}
	}
}

func TestMagicBarrierEpisodeDoesNotAllocate(t *testing.T) {
	m := newM(t, proto.WI, 32)
	b := m.NewMagicBarrier()
	mk := func(reps int) Program {
		return seq(repeat(reps,
			computeBy(func(p *Proc) sim.Time { return sim.Time(p.ID()) }),
			func(p *Proc, f *Frame) OpStatus { return b.FWait(p) },
		))
	}
	if got := allocsPerRep(m, mk); got != 0 {
		t.Errorf("a 32-processor magic barrier episode allocates %.2f objects, want 0", got)
	}
}

func TestMagicLockHandOffDoesNotAllocate(t *testing.T) {
	m := newM(t, proto.WI, 8)
	l := m.NewMagicLock()
	mk := func(reps int) Program {
		return seq(repeat(reps,
			func(p *Proc, f *Frame) OpStatus { return l.FAcquire(p) },
			compute(20), // long enough that every release finds waiters queued
			func(p *Proc, f *Frame) OpStatus { return l.FRelease(p) },
		))
	}
	if got := allocsPerRep(m, mk); got != 0 {
		t.Errorf("a contended magic lock hand-off allocates %.2f objects, want 0", got)
	}
	var waited bool
	for _, ps := range m.RunProgram(mk(1)).PerProc {
		waited = waited || ps.SyncWait > 0
	}
	if !waited {
		t.Error("no processor ever queued on the lock; the test no longer covers the hand-off path")
	}
}

// fetchAddLoop is the event-throughput body: n fetch-and-adds per
// processor on one shared counter. Register I0 counts them.
type fetchAddLoop struct {
	ctr Addr
	n   int
}

func (g *fetchAddLoop) Step(p *Proc, f *Frame) OpStatus {
	if f.I0 < g.n {
		f.I0++
		return p.FFetchAdd(g.ctr, 1)
	}
	return OpDone
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

// TestPooledRunAllocationCeilings bounds what one whole sweep-point cycle
// on a pooled 32-processor CU machine allocates — 1 600 fetch-and-adds,
// ~33 000 events — untraced, with the transaction tracer attached, and
// forked from a checkpoint (which replays the first half), in objects
// and in bytes. The ceilings are absolute and sit far below one object
// per simulated operation, so any
// slide back to per-event or per-span allocation, or to span and stall
// buffers that a breakdown point never reads, fails here whatever the
// timing benchmarks say.
func TestPooledRunAllocationCeilings(t *testing.T) {
	const procs, perProc = 32, 50
	prog := &fetchAddLoop{n: perProc}
	plain := func(cfg Config) {
		m := Acquire(cfg)
		prog.ctr = m.Alloc("ctr", 4, 0)
		m.RunProgram(prog)
		m.Release()
	}

	warm := Acquire(DefaultConfig(proto.CU, procs))
	half := &fetchAddLoop{ctr: warm.Alloc("ctr", 4, 0), n: perProc / 2}
	warm.RunProgram(half)
	snap := warm.Snapshot()
	warm.Release()

	for _, c := range []struct {
		name         string
		limit, bytes float64
		cycle        func()
	}{
		// Measured 2 objects, 3 088 bytes: the allocation-table entry and
		// result assembly.
		{"acquire, run, release", 8, 6200, func() { plain(DefaultConfig(proto.CU, procs)) }},
		// Measured 36 objects, 28 952 bytes: the tracer, its
		// per-processor rows, live-ring growth, a slab of records per 16
		// transactions in flight and the snapshot. Storing the spans and
		// stalls that only the timeline reads cost 4.2 MB here.
		{"the same with the transaction tracer", 72, 58000, func() {
			cfg := DefaultConfig(proto.CU, procs)
			cfg.Txn = trace.NewTracer(procs, 0)
			plain(cfg)
		}},
		// Measured 1 object, 3 072 bytes, as the plain cycle: the
		// replayed prefix assembles no Result. The fork allocates the
		// same table entry, so half.ctr is the address it needs.
		{"restore a checkpoint and run on", 16, 6200, func() {
			m := Acquire(DefaultConfig(proto.CU, procs))
			m.Alloc("ctr", 4, 0)
			m.RestoreFrom(snap)
			m.RunProgram(half)
			m.Release()
		}},
	} {
		for i := 0; i < 3; i++ {
			c.cycle() // grow the pool, free lists, event arena and message pools
		}
		if avg := testing.AllocsPerRun(5, c.cycle); avg > c.limit {
			t.Errorf("%s: %.0f allocations per cycle, ceiling %.0f (%d simulated operations)",
				c.name, avg, c.limit, procs*perProc)
		}
		if avg := bytesPerRun(5, c.cycle); avg > c.bytes {
			t.Errorf("%s: %.0f bytes allocated per cycle, ceiling %.0f (%d simulated operations)",
				c.name, avg, c.bytes, procs*perProc)
		}
	}
}
