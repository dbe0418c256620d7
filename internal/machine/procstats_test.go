package machine

import (
	"testing"

	"coherencesim/internal/proto"
	"coherencesim/internal/sim"
)

func TestProcStatsComputeAndOps(t *testing.T) {
	m := newM(t, proto.WI, 2)
	a := m.Alloc("x", 4, 1)
	res := m.RunProgram(byID{{
		compute(100),
		func(p *Proc, f *Frame) OpStatus { return p.FRead(a) },        // cold miss: shared copy
		func(p *Proc, f *Frame) OpStatus { return p.FFetchAdd(a, 1) }, // upgrade transaction: stalls
		func(p *Proc, f *Frame) OpStatus { return p.FWrite(a, 1) },    // local (line now exclusive)
		func(p *Proc, f *Frame) OpStatus { return p.FFlush(a) },
	}, nil})
	st := res.PerProc[0]
	if st.Reads != 1 || st.Writes != 1 || st.Atomics != 1 || st.Flushes != 1 {
		t.Fatalf("op counts %+v", st)
	}
	// Busy = 100 compute + 4 instruction issues.
	if st.Busy != 104 {
		t.Fatalf("busy = %d, want 104", st.Busy)
	}
	if st.ReadStall == 0 {
		t.Fatal("remote read recorded no stall")
	}
	if st.AtomicStall == 0 {
		t.Fatal("atomic recorded no stall")
	}
}

func TestProcStatsSpinWaitAccounted(t *testing.T) {
	for _, pr := range allProtocols() {
		m := newM(t, pr, 2)
		flag := m.Alloc("flag", 4, 0)
		res := m.RunProgram(byID{{
			compute(1000),
			func(p *Proc, f *Frame) OpStatus { return p.FWrite(flag, 1) },
		}, {
			func(p *Proc, f *Frame) OpStatus { return p.FSpinUntilEqual(flag, 1) },
		}})
		st := res.PerProc[1]
		if st.SpinWait < 800 {
			t.Errorf("%v: spin wait %d cycles, expected most of the 1000-cycle delay", pr, st.SpinWait)
		}
	}
}

func TestProcStatsSyncWaitAccounted(t *testing.T) {
	m := newM(t, proto.WI, 2)
	b := m.NewMagicBarrier()
	wait := func(p *Proc, f *Frame) OpStatus { return b.FWait(p) }
	res := m.RunProgram(byID{{compute(500), wait}, {wait}})
	if res.PerProc[1].SyncWait < 400 {
		t.Fatalf("sync wait = %d, want ~500", res.PerProc[1].SyncWait)
	}
}

func TestProcStatsFenceAccounted(t *testing.T) {
	m := newM(t, proto.PU, 4)
	a := m.Alloc("x", 4, 3)
	res := m.RunProgram(byID{{
		compute(100), // let the sharers cache the block first
		func(p *Proc, f *Frame) OpStatus { return p.FWrite(a, 1) },
		func(p *Proc, f *Frame) OpStatus { return p.FFence() },
	}, {
		func(p *Proc, f *Frame) OpStatus { return p.FRead(a) }, // create sharers so the write needs acks
		compute(200),
	}})
	if res.PerProc[0].FenceStall == 0 {
		t.Fatal("fence recorded no stall despite outstanding acks")
	}
}

func TestProcStatsTotalCoversRun(t *testing.T) {
	// For a processor that never idles outside its accounted states, the
	// total must be close to the run length (it may run shorter than the
	// machine if others finish later).
	m := newM(t, proto.CU, 4)
	l := m.NewMagicLock()
	a := m.Alloc("x", 4, 0)
	res := m.RunProgram(seq(repeat(20,
		func(p *Proc, f *Frame) OpStatus { return l.FAcquire(p) },
		func(p *Proc, f *Frame) OpStatus { return p.FRead(a) },
		func(p *Proc, f *Frame) OpStatus { return p.FWrite(a, p.Ret()+1) },
		func(p *Proc, f *Frame) OpStatus { return l.FRelease(p) },
	)))
	var maxTotal sim.Time
	for _, st := range res.PerProc {
		total := st.Busy + st.ReadStall + st.WriteStall + st.FenceStall +
			st.AtomicStall + st.SpinWait + st.SyncWait
		if total > maxTotal {
			maxTotal = total
		}
		if total > res.Cycles {
			t.Fatalf("proc total %d exceeds run length %d", total, res.Cycles)
		}
	}
	if maxTotal*10 < res.Cycles*9 {
		t.Fatalf("slowest proc accounts for %d of %d cycles; accounting leak", maxTotal, res.Cycles)
	}
}
