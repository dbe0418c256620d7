package machine

import (
	"testing"

	"coherencesim/internal/proto"
	"coherencesim/internal/trace"
)

func TestMachineTracing(t *testing.T) {
	cfg := DefaultConfig(proto.PU, 2)
	log := trace.NewLog(1024)
	cfg.Trace = log
	m := New(cfg)
	flag := m.Alloc("flag", 4, 0)
	m.RunProgram(byID{{
		compute(200),
		func(p *Proc, f *Frame) OpStatus { return p.FFetchAdd(flag, 1) },
		func(p *Proc, f *Frame) OpStatus { return p.FFence() },
	}, {
		func(p *Proc, f *Frame) OpStatus { return p.FSpinUntilEqual(flag, 1) },
		func(p *Proc, f *Frame) OpStatus { return p.FWrite(flag+4, 2) },
		func(p *Proc, f *Frame) OpStatus { return p.FFlush(flag) },
	}})
	var counts [16]int
	for _, e := range log.Events() {
		counts[e.Kind]++
	}
	if counts[trace.Atomic] != 1 {
		t.Errorf("atomic events %d", counts[trace.Atomic])
	}
	if counts[trace.Write] != 1 {
		t.Errorf("write events %d", counts[trace.Write])
	}
	if counts[trace.Flush] != 1 {
		t.Errorf("flush events %d", counts[trace.Flush])
	}
	if counts[trace.SpinPark] == 0 || counts[trace.SpinPark] != counts[trace.SpinWake] {
		t.Errorf("spin park/wake %d/%d", counts[trace.SpinPark], counts[trace.SpinWake])
	}
	if counts[trace.Read]+counts[trace.ReadMiss] == 0 {
		t.Error("no read events")
	}
	// Chronological ordering.
	evs := log.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].Time < evs[i-1].Time {
			t.Fatal("trace not chronological")
		}
	}
}

func TestMachineWithoutTraceIsUnaffected(t *testing.T) {
	// Identical results with and without tracing.
	run := func(withTrace bool) Result {
		cfg := DefaultConfig(proto.CU, 4)
		if withTrace {
			cfg.Trace = trace.NewLog(64)
		}
		m := New(cfg)
		a := m.Alloc("x", 4, 0)
		return m.RunProgram(seq(repeat(10, func(p *Proc, f *Frame) OpStatus { return p.FFetchAdd(a, 1) })))
	}
	r1, r2 := run(true), run(false)
	if r1.Cycles != r2.Cycles || r1.Misses != r2.Misses {
		t.Fatal("tracing changed simulation results")
	}
}
