package machine

import (
	"testing"
	"testing/quick"

	"coherencesim/internal/metrics"
	"coherencesim/internal/proto"
	"coherencesim/internal/sim"
)

func newM(t *testing.T, pr proto.Protocol, procs int) *Machine {
	t.Helper()
	return New(DefaultConfig(pr, procs))
}

func allProtocols() []proto.Protocol {
	return []proto.Protocol{proto.WI, proto.PU, proto.CU}
}

func TestConfigValidation(t *testing.T) {
	for _, bad := range []Config{
		{Procs: 0},
		{Procs: 65},
		{Procs: 4, WBEntries: 0},
	} {
		bad := bad
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", bad)
				}
			}()
			New(bad)
		}()
	}
}

func TestAllocPlacementAndAlignment(t *testing.T) {
	m := newM(t, proto.WI, 4)
	a := m.Alloc("x", 4, 2)
	b := m.Alloc("y", 100, 1)
	c := m.Alloc("z", 64, -1)
	if a%64 != 0 || b%64 != 0 || c%64 != 0 {
		t.Fatal("allocations not block-aligned")
	}
	if a == b || b == c {
		t.Fatal("allocations overlap")
	}
	// Homes: x on node 2; y spans 2 blocks both on node 1.
	if m.sys.HomeOf(uint32(a/64)) != 2 {
		t.Errorf("x home = %d", m.sys.HomeOf(uint32(a/64)))
	}
	for i := uint32(0); i < 2; i++ {
		if m.sys.HomeOf(uint32(b/64)+i) != 1 {
			t.Errorf("y block %d home = %d", i, m.sys.HomeOf(uint32(b/64)+i))
		}
	}
}

func TestAllocErrors(t *testing.T) {
	m := newM(t, proto.WI, 2)
	m.Alloc("a", 4, 0)
	for name, f := range map[string]func(){
		"dup":  func() { m.Alloc("a", 4, 0) },
		"size": func() { m.Alloc("b", 0, 0) },
		"home": func() { m.Alloc("c", 4, 5) },
	} {
		f := f
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPokePeek(t *testing.T) {
	m := newM(t, proto.WI, 2)
	a := m.Alloc("x", 64, 0)
	m.Poke(a+8, 31415)
	if m.Peek(a+8) != 31415 {
		t.Fatal("Poke/Peek roundtrip failed")
	}
}

func TestReadHitCostsOneCycle(t *testing.T) {
	for _, pr := range allProtocols() {
		m := newM(t, pr, 2)
		a := m.Alloc("x", 4, 0)
		var missT, hitT sim.Time
		res := m.RunProgram(byID{{ // register T0: issue time
			func(p *Proc, f *Frame) OpStatus {
				f.T0 = p.Now()
				return p.FRead(a)
			},
			func(p *Proc, f *Frame) OpStatus {
				missT = p.Now() - f.T0
				f.T0 = p.Now()
				return p.FRead(a)
			},
			do(func(p *Proc, f *Frame) { hitT = p.Now() - f.T0 }),
		}, nil})
		if hitT != 1 {
			t.Errorf("%v: hit cost %d cycles, want 1", pr, hitT)
		}
		if missT <= 1 {
			t.Errorf("%v: miss cost %d cycles, want > 1", pr, missT)
		}
		if res.Misses.TotalMisses() != 1 {
			t.Errorf("%v: misses %v", pr, res.Misses)
		}
	}
}

func TestWriteCostsOneCycleIntoBuffer(t *testing.T) {
	m := newM(t, proto.WI, 2)
	a := m.Alloc("x", 4, 1)
	m.RunProgram(byID{{
		func(p *Proc, f *Frame) OpStatus {
			f.T0 = p.Now()
			return p.FWrite(a, 1)
		},
		do(func(p *Proc, f *Frame) {
			if d := p.Now() - f.T0; d != 1 {
				t.Errorf("buffered write cost %d cycles, want 1", d)
			}
		}),
	}, nil})
}

func TestWriteBufferFullStalls(t *testing.T) {
	m := newM(t, proto.PU, 2)
	a := m.Alloc("x", 64*8, 1) // remote home: drains are slow
	var took sim.Time
	// 5 writes into a 4-entry buffer: the fifth must stall.
	m.RunProgram(byID{seq(
		repeat(5, func(p *Proc, f *Frame) OpStatus { return p.FWrite(a+Addr(f.I0*64), uint32(f.I0)) }),
		[]stage{do(func(p *Proc, f *Frame) { took = p.Now() })},
	), nil})
	if took <= 5 {
		t.Errorf("5 writes took %d cycles; fifth should have stalled", took)
	}
}

func TestReadForwardsFromWriteBuffer(t *testing.T) {
	m := newM(t, proto.WI, 2)
	a := m.Alloc("x", 4, 1)
	m.RunProgram(byID{{
		func(p *Proc, f *Frame) OpStatus { return p.FWrite(a, 7) },
		func(p *Proc, f *Frame) OpStatus {
			f.T0 = p.Now()
			return p.FRead(a)
		},
		do(func(p *Proc, f *Frame) {
			if v := p.Ret(); v != 7 {
				t.Errorf("forwarded read = %d, want 7", v)
			}
			if d := p.Now() - f.T0; d != 1 {
				t.Errorf("forwarded read cost %d, want 1 (no miss)", d)
			}
		}),
	}, nil})
}

func TestFenceWaitsForWritesAllProtocols(t *testing.T) {
	for _, pr := range allProtocols() {
		m := newM(t, pr, 4)
		a := m.Alloc("x", 4, 3)
		m.RunProgram(byID{{
			func(p *Proc, f *Frame) OpStatus { return p.FWrite(a, 1) },
			func(p *Proc, f *Frame) OpStatus { return p.FFence() },
			do(func(p *Proc, f *Frame) {
				drained := false
				p.m.sys.WhenDrained(p.id, func() { drained = true }) // immediate iff nothing is outstanding
				if !drained || !p.wb.Empty() {
					t.Errorf("%v: fence left outstanding state", pr)
				}
			}),
		}, nil})
	}
}

func TestFetchAddAcrossProcs(t *testing.T) {
	for _, pr := range allProtocols() {
		m := newM(t, pr, 8)
		ctr := m.Alloc("ctr", 4, 0)
		m.RunProgram(seq(repeat(10, func(p *Proc, f *Frame) OpStatus { return p.FFetchAdd(ctr, 1) })))
		// All 80 increments must be present. Under WI the final value may
		// live in a cache, not memory.
		final := m.Peek(ctr)
		if pr == proto.WI {
			for q := 0; q < 8; q++ {
				if ln := m.sys.Cache(q).Lookup(uint32(ctr / 64)); ln != nil {
					final = ln.Data[0]
				}
			}
		}
		if final != 80 {
			t.Errorf("%v: counter = %d, want 80", pr, final)
		}
	}
}

func TestCompareSwapMutex(t *testing.T) {
	// A CAS-based test-and-set lock must provide mutual exclusion.
	for _, pr := range allProtocols() {
		m := newM(t, pr, 4)
		lock := m.Alloc("lock", 4, 0)
		shared := m.Alloc("shared", 4, 0)
		m.RunProgram(seq(repeat(5, // register U0: the value read
			func(p *Proc, f *Frame) OpStatus { return p.FCompareSwap(lock, 0, 1) },
			func(p *Proc, f *Frame) OpStatus {
				if p.Ret() != 0 { // lost: wait for the holder, then swap again
					f.PC -= 2
					return p.FSpinWhileEqual(lock, 1)
				}
				return p.FRead(shared)
			},
			func(p *Proc, f *Frame) OpStatus {
				f.U0 = p.Ret()
				return compute(3)(p, f)
			},
			func(p *Proc, f *Frame) OpStatus { return p.FWrite(shared, f.U0+1) },
			func(p *Proc, f *Frame) OpStatus { return p.FFence() },
			func(p *Proc, f *Frame) OpStatus { return p.FWrite(lock, 0) },
		)))
		final := m.Peek(shared)
		if pr == proto.WI {
			for q := 0; q < 4; q++ {
				if ln := m.sys.Cache(q).Lookup(uint32(shared / 64)); ln != nil && ln.State != 0 {
					final = ln.Data[0]
				}
			}
		}
		if final != 20 {
			t.Errorf("%v: shared counter = %d, want 20 (mutual exclusion violated)", pr, final)
		}
	}
}

// delayedFlagWrite is processor 0 of the spin tests: compute, publish
// the flag, optionally fence, and report when the write retired.
func delayedFlagWrite(delay sim.Time, flag Addr, fence bool, wroteAt *sim.Time) Steps {
	s := Steps{
		compute(delay),
		func(p *Proc, f *Frame) OpStatus { return p.FWrite(flag, 1) },
		do(func(p *Proc, f *Frame) { *wroteAt = p.Now() }),
	}
	if fence {
		s = append(s, func(p *Proc, f *Frame) OpStatus { return p.FFence() })
	}
	return s
}

func TestSpinUntilSeesRemoteWrite(t *testing.T) {
	for _, pr := range allProtocols() {
		m := newM(t, pr, 2)
		flag := m.Alloc("flag", 4, 0)
		var sawAt, wroteAt sim.Time
		m.RunProgram(byID{
			delayedFlagWrite(500, flag, false, &wroteAt),
			{
				func(p *Proc, f *Frame) OpStatus { return p.FSpinUntilEqual(flag, 1) },
				do(func(p *Proc, f *Frame) { sawAt = p.Now() }),
			},
		})
		if sawAt == 0 || sawAt < wroteAt {
			t.Errorf("%v: spin saw flag at %d, write at %d", pr, sawAt, wroteAt)
		}
	}
}

// TestSpinPollTimelineSlices pins the uncompressed-spin observability
// fix: with SpinPollCycles > 0 each polling interval must appear on the
// timeline as a "spin-wait" slice, and the slice durations must sum to
// exactly the spinner's ProcStats.SpinWait.
func TestSpinPollTimelineSlices(t *testing.T) {
	for _, pr := range allProtocols() {
		cfg := DefaultConfig(pr, 2)
		cfg.SpinPollCycles = 10
		tl := metrics.NewTimeline()
		cfg.Timeline = tl
		m := New(cfg)
		flag := m.Alloc("flag", 4, 0)
		var wroteAt sim.Time
		res := m.RunProgram(byID{
			delayedFlagWrite(500, flag, true, &wroteAt),
			{func(p *Proc, f *Frame) OpStatus { return p.FSpinUntilEqual(flag, 1) }},
		})
		var slices, total sim.Time
		for _, s := range tl.Slices() {
			if s.Proc != 1 || s.Name != "spin-wait" {
				continue
			}
			slices++
			if s.End != s.Start+cfg.SpinPollCycles {
				t.Errorf("%v: spin-wait slice [%d,%d) is not one %d-cycle poll",
					pr, s.Start, s.End, cfg.SpinPollCycles)
			}
			total += s.End - s.Start
		}
		if slices == 0 {
			t.Errorf("%v: no spin-wait timeline slices recorded under polling model", pr)
		}
		if want := res.PerProc[1].SpinWait; total != want {
			t.Errorf("%v: spin-wait slices cover %d cycles, ProcStats.SpinWait = %d", pr, total, want)
		}
	}
}

func TestMagicLockFIFOAndExclusion(t *testing.T) {
	m := newM(t, proto.WI, 8)
	l := m.NewMagicLock()
	inCS := 0
	var order []int
	m.RunProgram(Steps{
		computeBy(func(p *Proc) sim.Time { return sim.Time(p.ID()) }), // stagger arrivals
		func(p *Proc, f *Frame) OpStatus { return l.FAcquire(p) },
		func(p *Proc, f *Frame) OpStatus {
			inCS++
			if inCS != 1 {
				t.Error("mutual exclusion violated")
			}
			order = append(order, p.ID())
			return compute(20)(p, f)
		},
		func(p *Proc, f *Frame) OpStatus {
			inCS--
			return l.FRelease(p)
		},
	})
	for i, id := range order {
		if id != i {
			t.Fatalf("order %v not FIFO", order)
		}
	}
}

func TestMagicLockGeneratesNoTraffic(t *testing.T) {
	m := newM(t, proto.PU, 4)
	l := m.NewMagicLock()
	res := m.RunProgram(seq(repeat(10,
		func(p *Proc, f *Frame) OpStatus { return l.FAcquire(p) },
		compute(5),
		func(p *Proc, f *Frame) OpStatus { return l.FRelease(p) },
	)))
	if res.Net.Messages != 0 || res.Net.Loopback != 0 {
		t.Fatalf("magic lock produced traffic: %+v", res.Net)
	}
}

func TestMagicLockReleaseWithoutHolderPanics(t *testing.T) {
	m := newM(t, proto.WI, 1)
	l := m.NewMagicLock()
	defer func() {
		if recover() == nil {
			t.Error("release without holder did not panic")
		}
	}()
	m.RunProgram(Steps{func(p *Proc, f *Frame) OpStatus { return l.FRelease(p) }})
}

func TestMagicBarrierJoinsAll(t *testing.T) {
	m := newM(t, proto.WI, 8)
	b := m.NewMagicBarrier()
	var maxArrive, minLeave sim.Time
	minLeave = 1 << 60
	m.RunProgram(Steps{
		computeBy(func(p *Proc) sim.Time { return sim.Time(10 * p.ID()) }),
		func(p *Proc, f *Frame) OpStatus {
			if p.Now() > maxArrive {
				maxArrive = p.Now()
			}
			return b.FWait(p)
		},
		do(func(p *Proc, f *Frame) {
			if p.Now() < minLeave {
				minLeave = p.Now()
			}
		}),
	})
	if minLeave < maxArrive {
		t.Fatalf("a processor left the barrier (t=%d) before the last arrival (t=%d)", minLeave, maxArrive)
	}
}

func TestMagicBarrierRepeatedEpisodes(t *testing.T) {
	m := newM(t, proto.WI, 4)
	b := m.NewMagicBarrier()
	counts := make([]int, 4)
	m.RunProgram(seq(repeat(50,
		computeBy(func(p *Proc) sim.Time { return sim.Time(p.Rand().Intn(30) + 1) }),
		func(p *Proc, f *Frame) OpStatus { return b.FWait(p) },
		do(func(p *Proc, f *Frame) { counts[p.ID()]++ }),
	)))
	for i, c := range counts {
		if c != 50 {
			t.Fatalf("proc %d completed %d episodes, want 50", i, c)
		}
	}
}

func TestMagicBarrierGeneratesNoTraffic(t *testing.T) {
	m := newM(t, proto.CU, 4)
	b := m.NewMagicBarrier()
	res := m.RunProgram(seq(repeat(20, func(p *Proc, f *Frame) OpStatus { return b.FWait(p) })))
	if res.Net.Messages != 0 || res.Net.Loopback != 0 {
		t.Fatalf("magic barrier produced traffic: %+v", res.Net)
	}
}

func TestRunResultPopulated(t *testing.T) {
	m := newM(t, proto.PU, 4)
	a := m.Alloc("x", 4, 0)
	res := m.RunProgram(Steps{
		func(p *Proc, f *Frame) OpStatus { return p.FRead(a) },
		func(p *Proc, f *Frame) OpStatus { return p.FWrite(a, uint32(p.ID())) },
		func(p *Proc, f *Frame) OpStatus { return p.FFence() },
	})
	if res.Cycles == 0 {
		t.Error("zero cycles")
	}
	if res.Misses.TotalMisses() == 0 {
		t.Error("no misses recorded")
	}
	if res.Counters.WriteThrough == 0 {
		t.Error("no write-throughs recorded")
	}
	if res.Net.Messages == 0 {
		t.Error("no traffic recorded")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		m := newM(t, proto.CU, 8)
		a := m.Alloc("x", 256, -1)
		l := m.NewMagicLock()
		return m.RunProgram(seq(repeat(20,
			func(p *Proc, f *Frame) OpStatus { return p.FFetchAdd(a, 1) },
			func(p *Proc, f *Frame) OpStatus { return l.FAcquire(p) },
			func(p *Proc, f *Frame) OpStatus { return p.FRead(a + 64) },
			func(p *Proc, f *Frame) OpStatus { return p.FWrite(a+64, p.Ret()+1) },
			func(p *Proc, f *Frame) OpStatus { return l.FRelease(p) },
			computeBy(func(p *Proc) sim.Time { return sim.Time(p.Rand().Intn(10)) }),
		)))
	}
	r1, r2 := run(), run()
	if r1.Cycles != r2.Cycles || r1.Misses != r2.Misses ||
		r1.Updates != r2.Updates || r1.Counters != r2.Counters || r1.Net != r2.Net {
		t.Fatalf("nondeterministic results:\n%+v\n%+v", r1, r2)
	}
	for i := range r1.PerProc {
		if r1.PerProc[i] != r2.PerProc[i] {
			t.Fatalf("nondeterministic per-proc stats at %d", i)
		}
	}
}

func TestProcAccessors(t *testing.T) {
	m := newM(t, proto.WI, 3)
	m.RunProgram(Steps{
		func(p *Proc, f *Frame) OpStatus {
			if p.Rand() == nil {
				t.Error("Rand() nil")
			}
			return compute(0)(p, f) // zero-cost compute is a no-op
		},
	})
	if m.Procs() != 3 || m.System() == nil {
		t.Error("machine accessors wrong")
	}
}

// Property: per-processor sequential semantics — a processor reading a
// location it alone writes always observes its own latest write,
// regardless of protocol and intervening operations.
func TestPropertyReadYourOwnWrites(t *testing.T) {
	f := func(valsRaw []uint32, protoIdx uint8) bool {
		if len(valsRaw) == 0 {
			return true
		}
		if len(valsRaw) > 12 {
			valsRaw = valsRaw[:12]
		}
		pr := allProtocols()[int(protoIdx)%3]
		m := New(DefaultConfig(pr, 2))
		a := m.Alloc("x", 4, 1)
		ok := true
		var prog Steps
		for _, v := range valsRaw {
			v := v
			prog = append(prog,
				func(p *Proc, f *Frame) OpStatus { return p.FWrite(a, v) },
				func(p *Proc, f *Frame) OpStatus { return p.FRead(a) },
				do(func(p *Proc, f *Frame) {
					if p.Ret() != v {
						ok = false
					}
				}))
		}
		m.RunProgram(byID{prog, nil})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: coherence — after quiescence, a value written (and fenced) by
// one processor is read by every other processor, for all protocols.
func TestPropertyEventualVisibility(t *testing.T) {
	f := func(v uint32, protoIdx, writerRaw uint8) bool {
		pr := allProtocols()[int(protoIdx)%3]
		procs := 4
		writer := int(writerRaw) % procs
		m := New(DefaultConfig(pr, procs))
		a := m.Alloc("x", 4, 0)
		flag := m.Alloc("flag", 4, 0)
		okAll := true
		writerProg := Steps{
			func(p *Proc, f *Frame) OpStatus { return p.FWrite(a, v) },
			func(p *Proc, f *Frame) OpStatus { return p.FFence() },
			func(p *Proc, f *Frame) OpStatus { return p.FWrite(flag, 1) },
		}
		readerProg := Steps{
			func(p *Proc, f *Frame) OpStatus { return p.FSpinUntilEqual(flag, 1) },
			func(p *Proc, f *Frame) OpStatus { return p.FRead(a) },
			do(func(p *Proc, f *Frame) {
				if p.Ret() != v {
					okAll = false
				}
			}),
		}
		progs := byID{readerProg, readerProg, readerProg, readerProg}
		progs[writer] = writerProg
		m.RunProgram(progs)
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
