package coherencesim

import (
	"strings"
	"testing"
)

// The facade tests exercise the public API exactly as the README and
// examples present it.

func TestQuickstartFlow(t *testing.T) {
	cfg := DefaultConfig(PU, 8)
	m := NewMachine(cfg)
	counter := m.Alloc("counter", 4, 0)
	lock := NewTicketLock(m, "L")
	res := m.RunProgram(Steps{ // register I0 counts iterations
		func(p *Proc, f *Frame) OpStatus {
			if f.I0 == 20 {
				f.PC = 4 // past the last stage: done
				return OpDone
			}
			return lock.FAcquire(p)
		},
		func(p *Proc, f *Frame) OpStatus { return p.FRead(counter) },
		func(p *Proc, f *Frame) OpStatus { return p.FWrite(counter, p.Ret()+1) },
		func(p *Proc, f *Frame) OpStatus {
			f.I0++
			f.PC = 0 // back to the loop head once the release completes
			return lock.FRelease(p)
		},
	})
	if got := m.Peek(counter); got != 160 {
		t.Fatalf("counter = %d, want 160", got)
	}
	if res.Cycles == 0 || res.Updates.Total() == 0 {
		t.Fatalf("result not populated: %+v", res)
	}
}

func TestAllConstructConstructors(t *testing.T) {
	m := NewMachine(DefaultConfig(WI, 8))
	var locks []Lock = []Lock{
		NewTicketLock(m, "t"),
		NewMCSLock(m, "m", false),
		NewMCSLock(m, "u", true),
		m.NewMagicLock(),
	}
	var barriers []Barrier = []Barrier{
		NewCentralBarrier(m, "cb"),
		NewDisseminationBarrier(m, "db"),
		NewTreeBarrier(m, "tb"),
		m.NewMagicBarrier(),
	}
	var reducers []Reducer = []Reducer{
		NewParallelReducer(m, "pr", locks[3], barriers[3]),
		NewSequentialReducer(m, "sr", barriers[3]),
	}
	var prog Steps
	for _, l := range locks {
		prog = append(prog, critical(l, compute(5))...)
	}
	for _, b := range barriers {
		prog = append(prog, wait(b))
	}
	for i, r := range reducers {
		i, r := i, r
		prog = append(prog,
			func(p *Proc, f *Frame) OpStatus { return r.FReduce(p, uint32(10*i+p.ID())) },
			read(r.ResultAddr()),
			do(func(p *Proc, f *Frame) {
				if p.ID() == 0 && p.Ret() != uint32(10*i+7) {
					t.Errorf("reducer %d wrong result", i)
				}
			}))
	}
	m.RunProgram(prog)
}

func TestWorkloadReExports(t *testing.T) {
	p := DefaultLockParams(CU, 4)
	p.Iterations = 80
	if res := LockLoop(p, Ticket); res.Acquires != 80 {
		t.Fatalf("acquires %d", res.Acquires)
	}
	bp := DefaultBarrierParams(WI, 4)
	bp.Iterations = 20
	if res := BarrierLoop(bp, Tree); res.Episodes != 20 {
		t.Fatalf("episodes %d", res.Episodes)
	}
	rp := DefaultReductionParams(PU, 4)
	rp.Iterations = 20
	if res := ReductionLoop(rp, Parallel); res.Reductions != 20 {
		t.Fatalf("reductions %d", res.Reductions)
	}
}

func TestExperimentReExports(t *testing.T) {
	o := ExperimentOptions{
		Procs:             []int{4},
		TrafficProcs:      4,
		LockIterations:    160,
		BarrierEpisodes:   20,
		ReductionEpisodes: 20,
	}
	if tbl := Figure8(o).Table().String(); !strings.Contains(tbl, "MCS-c") {
		t.Errorf("figure 8 table missing combos:\n%s", tbl)
	}
	if tbl := Figure13(o).Table().String(); !strings.Contains(tbl, "useful") {
		t.Errorf("figure 13 table missing categories:\n%s", tbl)
	}
	if QuickScale().LockIterations >= PaperScale().LockIterations {
		t.Error("quick scale not smaller than paper scale")
	}
}

func TestProtocolConstants(t *testing.T) {
	if WI.String() != "WI" || PU.String() != "PU" || CU.String() != "CU" {
		t.Error("protocol constants wrong")
	}
	if MissCold.String() != "cold" || UpdDrop.String() != "drop" {
		t.Error("classification constants wrong")
	}
}
