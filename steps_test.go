package coherencesim

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
func compute(n uint64) stage {
	return func(p *Proc, f *Frame) OpStatus {
		if !p.FCompute(n) {
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

// critical is acquire, the stages of the critical section, release.
func critical(l Lock, section ...stage) []stage {
	acquire := func(p *Proc, f *Frame) OpStatus { return l.FAcquire(p) }
	release := func(p *Proc, f *Frame) OpStatus { return l.FRelease(p) }
	return append(append([]stage{acquire}, section...), release)
}

// wait is FWait as a stage.
func wait(b Barrier) stage {
	return func(p *Proc, f *Frame) OpStatus { return b.FWait(p) }
}

// read is FRead as a stage; the value is in p.Ret() at the next stage.
func read(a Addr) stage {
	return func(p *Proc, f *Frame) OpStatus { return p.FRead(a) }
}

// fetchAddLoop is n fetch-and-adds on ctr per processor: one stage that
// re-enters itself, counting in register I0.
func fetchAddLoop(ctr Addr, n int) Steps {
	return Steps{func(p *Proc, f *Frame) OpStatus {
		if f.I0 == n {
			return OpDone
		}
		f.I0++
		f.PC = 0
		return p.FFetchAdd(ctr, 1)
	}}
}

// roles runs a different program on each processor.
type roles []Steps

func (r roles) Step(p *Proc, f *Frame) OpStatus { return r[p.ID()].Step(p, f) }
