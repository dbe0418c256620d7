package constructs

import (
	"coherencesim/internal/machine"
	"coherencesim/internal/sim"
)

// Helpers for writing test workloads as machine.Steps programs.

// stage is one machine.Steps entry.
type stage = func(p *machine.Proc, f *machine.Frame) machine.OpStatus

// do runs plain Go code between operations.
func do(fn func(p *machine.Proc, f *machine.Frame)) stage {
	return func(p *machine.Proc, f *machine.Frame) machine.OpStatus {
		fn(p, f)
		return machine.OpDone
	}
}

// compute is FCompute as a stage.
func compute(n sim.Time) stage {
	return computeBy(func(*machine.Proc) sim.Time { return n })
}

// computeBy is FCompute of a per-processor amount as a stage.
func computeBy(n func(p *machine.Proc) sim.Time) stage {
	return func(p *machine.Proc, f *machine.Frame) machine.OpStatus {
		if !p.FCompute(n(p)) {
			return machine.OpBlocked
		}
		return machine.OpDone
	}
}

// repeat is "for ; f.I0 < n; f.I0++ { body }" as stages. Its jumps are
// relative, so it may sit anywhere in a program.
func repeat(n int, body ...stage) []stage {
	head := do(func(p *machine.Proc, f *machine.Frame) {
		if f.I0 >= n {
			f.PC += len(body) + 1
		}
	})
	tail := do(func(p *machine.Proc, f *machine.Frame) {
		f.I0++
		f.PC -= len(body) + 2
	})
	return append(append([]stage{head}, body...), tail)
}

// seq concatenates stage lists into one program.
func seq(parts ...[]stage) machine.Steps {
	var s machine.Steps
	for _, part := range parts {
		s = append(s, part...)
	}
	return s
}

// critical is acquire, the stages of the critical section, release.
func critical(l Lock, section ...stage) []stage {
	acquire := func(p *machine.Proc, f *machine.Frame) machine.OpStatus { return l.FAcquire(p) }
	release := func(p *machine.Proc, f *machine.Frame) machine.OpStatus { return l.FRelease(p) }
	return append(append([]stage{acquire}, section...), release)
}

// wait is FWait as a stage.
func wait(b Barrier) stage {
	return func(p *machine.Proc, f *machine.Frame) machine.OpStatus { return b.FWait(p) }
}

// read is FRead as a stage; the value is in p.Ret() at the next stage.
func read(a machine.Addr) stage {
	return func(p *machine.Proc, f *machine.Frame) machine.OpStatus { return p.FRead(a) }
}
