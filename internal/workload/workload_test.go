package workload

import (
	"testing"

	"coherencesim/internal/proto"
)

func small(p Params, iters int) Params {
	p.Iterations = iters
	return p
}

func TestKindStrings(t *testing.T) {
	if Ticket.String() != "tk" || MCS.String() != "MCS" || UpdateConsciousMCS.String() != "uc" {
		t.Error("lock kind strings")
	}
	if Central.String() != "cb" || Dissemination.String() != "db" || Tree.String() != "tb" {
		t.Error("barrier kind strings")
	}
	if Sequential.String() != "sr" || Parallel.String() != "pr" {
		t.Error("reduction kind strings")
	}
	if LockKind(9).String() != "?" || BarrierKind(9).String() != "?" || ReductionKind(9).String() != "?" {
		t.Error("unknown kind strings")
	}
}

func TestLockLoopAllCombos(t *testing.T) {
	for _, pr := range []proto.Protocol{proto.WI, proto.PU, proto.CU} {
		for _, k := range []LockKind{Ticket, MCS, UpdateConsciousMCS} {
			for _, procs := range []int{1, 4} {
				res := LockLoop(small(DefaultLockParams(pr, procs), 80), k)
				if res.Acquires != 80 {
					t.Fatalf("%v/%v/p%d: acquires %d", pr, k, procs, res.Acquires)
				}
				if res.AvgLatency <= 0 {
					t.Errorf("%v/%v/p%d: non-positive latency %f", pr, k, procs, res.AvgLatency)
				}
				if res.Cycles < 80*50/uint64(procs) {
					t.Errorf("%v/%v/p%d: run shorter than the serial hold time", pr, k, procs)
				}
			}
		}
	}
}

func TestLockLoopVariants(t *testing.T) {
	for _, k := range []LockKind{Ticket, MCS} {
		r1 := RunLockLoop(small(DefaultLockParams(proto.WI, 4), 80), k, RandomPause)
		r2 := RunLockLoop(small(DefaultLockParams(proto.WI, 4), 80), k, WorkRatio)
		if r1.Acquires != 80 || r2.Acquires != 80 {
			t.Fatalf("variant acquires %d, %d", r1.Acquires, r2.Acquires)
		}
		// The work-ratio variant guarantees each processor at least
		// iters*(0.9*P*hold + hold) cycles of serial work.
		minWork := uint64(20) * (uint64(0.9*4*50) + 50)
		if r2.Cycles < minWork {
			t.Errorf("%v: work-ratio run %d cycles, below serial lower bound %d", k, r2.Cycles, minWork)
		}
	}
}

func TestBarrierLoopAllCombos(t *testing.T) {
	for _, pr := range []proto.Protocol{proto.WI, proto.PU, proto.CU} {
		for _, k := range []BarrierKind{Central, Dissemination, Tree} {
			for _, procs := range []int{1, 2, 8} {
				res := BarrierLoop(small(DefaultBarrierParams(pr, procs), 40), k)
				if res.Episodes != 40 {
					t.Fatalf("%v/%v/p%d: episodes %d", pr, k, procs, res.Episodes)
				}
				if res.AvgLatency <= 0 {
					t.Errorf("%v/%v/p%d: non-positive latency", pr, k, procs)
				}
			}
		}
	}
}

func TestReductionLoopAllCombos(t *testing.T) {
	for _, pr := range []proto.Protocol{proto.WI, proto.PU, proto.CU} {
		for _, k := range []ReductionKind{Sequential, Parallel} {
			res := ReductionLoop(small(DefaultReductionParams(pr, 4), 40), k)
			if res.Reductions != 40 || res.AvgLatency <= 0 {
				t.Fatalf("%v/%v: bad result %+v", pr, k, res.AvgLatency)
			}
			// Magic sync: no lock/barrier traffic, so all misses come
			// from the reduction data itself; at minimum the run works.
			res2 := RunReductionLoop(small(DefaultReductionParams(pr, 4), 40), k, true)
			if res2.Reductions != 40 {
				t.Fatalf("%v/%v: imbalanced run broken", pr, k)
			}
		}
	}
}

func TestLocalValueMonotoneAndVaried(t *testing.T) {
	procs := 8
	prevMax := uint32(0)
	winners := map[int]bool{}
	for ep := 0; ep < 32; ep++ {
		max, arg := uint32(0), 0
		for id := 0; id < procs; id++ {
			if v := localValue(ep, id, procs); v > max {
				max, arg = v, id
			}
		}
		if max <= prevMax {
			t.Fatalf("episode %d: max %d not increasing past %d", ep, max, prevMax)
		}
		prevMax = max
		winners[arg] = true
	}
	if len(winners) < 4 {
		t.Errorf("winner hardly varies: %v", winners)
	}
}

func TestDeterministicWorkloads(t *testing.T) {
	a := LockLoop(small(DefaultLockParams(proto.CU, 4), 200), MCS)
	b := LockLoop(small(DefaultLockParams(proto.CU, 4), 200), MCS)
	if a.Cycles != b.Cycles || a.Misses != b.Misses || a.Updates != b.Updates {
		t.Fatal("lock loop nondeterministic")
	}
}
