package machine

import (
	"testing"

	"coherencesim/internal/proto"
	"coherencesim/internal/sim"
)

// Helpers for writing test workloads as Steps programs.

// stage is one Steps entry.
type stage = func(p *Proc, f *Frame) OpStatus

// do runs plain Go code between operations.
func do(fn func(p *Proc, f *Frame)) stage {
	return func(p *Proc, f *Frame) OpStatus {
		fn(p, f)
		return OpDone
	}
}

// compute is FCompute as a stage.
func compute(n sim.Time) stage {
	return computeBy(func(*Proc) sim.Time { return n })
}

// computeBy is FCompute of a per-processor amount as a stage.
func computeBy(n func(p *Proc) sim.Time) stage {
	return func(p *Proc, f *Frame) OpStatus {
		if !p.FCompute(n(p)) {
			return OpBlocked
		}
		return OpDone
	}
}

// repeat is "for ; f.I0 < n; f.I0++ { body }" as stages. Its jumps are
// relative, so it may sit anywhere in a program.
func repeat(n int, body ...stage) []stage {
	head := do(func(p *Proc, f *Frame) {
		if f.I0 >= n {
			f.PC += len(body) + 1
		}
	})
	tail := do(func(p *Proc, f *Frame) {
		f.I0++
		f.PC -= len(body) + 2
	})
	return append(append([]stage{head}, body...), tail)
}

// seq concatenates stage lists into one program.
func seq(parts ...[]stage) Steps {
	var s Steps
	for _, part := range parts {
		s = append(s, part...)
	}
	return s
}

// byID runs entry p.ID() on each processor, and the last entry on every
// processor beyond the list; a nil entry finishes at once.
type byID []Steps

func (g byID) Step(p *Proc, f *Frame) OpStatus {
	i := p.ID()
	if i >= len(g) {
		i = len(g) - 1
	}
	return g[i].Step(p, f)
}

func TestStepsLoopsAndExits(t *testing.T) {
	m := newM(t, proto.WI, 2)
	a := m.Alloc("x", 4, 0)
	visits := make([]int, 2)
	m.RunProgram(Steps{
		func(p *Proc, f *Frame) OpStatus { // stage 0: loop head
			if f.I0 == 3 {
				f.PC = 99 // any index past the end finishes
				return OpDone
			}
			return p.FRead(a) // continues at stage 1 when the read completes
		},
		func(p *Proc, f *Frame) OpStatus {
			visits[p.ID()]++
			f.I0++
			f.PC = 0
			return OpDone // falls through to the assigned stage at once
		},
		func(p *Proc, f *Frame) OpStatus {
			t.Error("stage after the loop ran despite the exit jump")
			return OpDone
		},
	})
	if visits[0] != 3 || visits[1] != 3 {
		t.Fatalf("loop bodies ran %v times, want 3 each", visits)
	}
}
