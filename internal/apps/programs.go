package apps

import (
	"coherencesim/internal/constructs"
	"coherencesim/internal/machine"
	"coherencesim/internal/sim"
)

// The three kernel bodies as Programs (see machine/program.go for the
// model).

// workQueueProgram is WorkQueue's body: take the next index under the
// lock, execute the task, repeat until the cursor passes the end.
// Registers: U0 claimed task index.
type workQueueProgram struct {
	l      constructs.Lock
	cursor machine.Addr
	done   machine.Addr
	tasks  int
	work   sim.Time
}

func (g *workQueueProgram) Step(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	for {
		switch f.PC {
		case 0:
			f.PC = 1
			return g.l.FAcquire(p)
		case 1:
			f.PC = 2
			return p.FRead(g.cursor)
		case 2:
			f.U0 = p.Ret()
			if int(f.U0) >= g.tasks {
				f.PC = 6
				return g.l.FRelease(p)
			}
			f.PC = 3
			return p.FWrite(g.cursor, f.U0+1)
		case 3:
			f.PC = 4
			return g.l.FRelease(p)
		case 4: // the task's own work
			f.PC = 5
			if !p.FCompute(g.work) {
				return machine.OpBlocked
			}
			fallthrough
		case 5:
			f.PC = 0
			return p.FFetchAdd(g.done+machine.Addr(4*f.U0), 1)
		case 6:
			return machine.OpDone
		default:
			panic("apps: workQueueProgram bad pc")
		}
	}
}

// jacobiProgram is Jacobi's body: read the neighbours' halo cells,
// relax, update the own strip's edges, cross the barrier. Registers:
// I0 sweep, U0 left halo value, U1 right halo value.
type jacobiProgram struct {
	b      constructs.Barrier
	strips []machine.Addr
	cells  int
	sweeps int
	procs  int
}

func (g *jacobiProgram) edge(i, c int) machine.Addr {
	return g.strips[i] + machine.Addr(4*c)
}

func (g *jacobiProgram) Step(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	for {
		switch f.PC {
		case 0:
			if f.I0 >= g.sweeps {
				return machine.OpDone
			}
			left := (p.ID() + g.procs - 1) % g.procs
			f.PC = 1
			return p.FRead(g.edge(left, g.cells-1))
		case 1:
			f.U0 = p.Ret()
			right := (p.ID() + 1) % g.procs
			f.PC = 2
			return p.FRead(g.edge(right, 0))
		case 2:
			f.U1 = p.Ret()
			f.PC = 3
			if !p.FCompute(sim.Time(g.cells)) { // relaxation arithmetic
				return machine.OpBlocked
			}
			fallthrough
		case 3: // update both edges of the own strip from the halos
			f.PC = 4
			return p.FRead(g.edge(p.ID(), 0))
		case 4:
			f.PC = 5
			return p.FWrite(g.edge(p.ID(), 0), (f.U0+p.Ret())/2)
		case 5:
			f.PC = 6
			return p.FRead(g.edge(p.ID(), g.cells-1))
		case 6:
			f.PC = 7
			return p.FWrite(g.edge(p.ID(), g.cells-1), (p.Ret()+f.U1)/2)
		case 7:
			f.I0++
			f.PC = 0
			return g.b.FWait(p)
		default:
			panic("apps: jacobiProgram bad pc")
		}
	}
}

// nbodyProgram is NBodyMax's body: compute, reduce the force bound,
// verify the observed maximum, cross the step gate. The correctness
// verdict lives on the program; step functions run on the single
// event-loop goroutine, so the plain bool is race-free. Registers: I0 step, U0 expected maximum.
type nbodyProgram struct {
	red     constructs.Reducer
	gate    *machine.MagicBarrier
	steps   int
	procs   int
	work    sim.Time
	correct bool
}

func (g *nbodyProgram) Step(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	for {
		switch f.PC {
		case 0:
			if f.I0 >= g.steps {
				return machine.OpDone
			}
			f.PC = 1
			if !p.FCompute(g.work) {
				return machine.OpBlocked
			}
			fallthrough
		case 1:
			s, id := f.I0, p.ID()
			local := uint32(s)*uint32(2*g.procs) + uint32((id*5+s)%g.procs)
			want := uint32(0)
			for q := 0; q < g.procs; q++ {
				if v := uint32(s)*uint32(2*g.procs) + uint32((q*5+s)%g.procs); v > want {
					want = v
				}
			}
			f.U0 = want
			f.PC = 2
			return g.red.FReduce(p, local)
		case 2:
			f.PC = 3
			return p.FRead(g.red.ResultAddr())
		case 3:
			if p.Ret() != f.U0 {
				g.correct = false
			}
			f.I0++
			f.PC = 0
			return g.gate.FWait(p) // keep steps separated
		default:
			panic("apps: nbodyProgram bad pc")
		}
	}
}
