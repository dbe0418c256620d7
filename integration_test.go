package coherencesim

import (
	"fmt"
	"testing"

	"coherencesim/internal/runner"
)

// Integration tests: complete parallel applications combining several
// constructs, verified for functional correctness under every protocol
// and machine size, with the protocol invariant checker run at the end.
//
// Each (protocol, size) combination is an independent simulation, so the
// matrices fan out through the runner pool. Jobs return failure messages
// instead of calling into *testing.T so every assertion happens on the
// test goroutine; under -race this also exercises the pool ↔ simulation
// interaction.

// fanOut runs one job per combination and reports the failures each
// returns, prefixed with the combination's label.
func fanOut(t *testing.T, labels []string, runs []func() []string) {
	t.Helper()
	jobs := make([]runner.Job[[]string], len(runs))
	for i := range runs {
		jobs[i] = runner.Job[[]string]{Label: labels[i], Run: runs[i]}
	}
	for i, fails := range runner.Map(runner.New(4), jobs) {
		for _, f := range fails {
			t.Errorf("%s: %s", labels[i], f)
		}
	}
}

// coherenceErrors renders the invariant checker's findings.
func coherenceErrors(m *Machine) []string {
	var out []string
	for _, e := range m.System().CheckCoherence() {
		out = append(out, e.Error())
	}
	return out
}

// coherentPeek reads a word's current global value (memory, or a dirty
// cached copy under WI).
func coherentPeek(m *Machine, a Addr) uint32 {
	v := m.Peek(a)
	for q := 0; q < m.Procs(); q++ {
		if ln := m.System().Cache(q).Lookup(uint32(a / 64)); ln != nil && ln.Dirty {
			v = ln.Data[(a%64)/4]
		}
	}
	return v
}

// TestParallelHistogram bins values into a shared histogram protected by
// per-bin locks, with a barrier separating fill and verify phases.
func TestParallelHistogram(t *testing.T) {
	const bins = 4
	const perProc = 32
	run := func(pr Protocol, procs int) []string {
		var fails []string
		m := NewMachine(DefaultConfig(pr, procs))
		hist := make([]Addr, bins)
		locks := make([]Lock, bins)
		for b := 0; b < bins; b++ {
			hist[b] = m.Alloc(fmt.Sprintf("bin%d", b), 4, b%procs)
			locks[b] = NewMCSLock(m, fmt.Sprintf("L%d", b), false)
		}
		bar := NewDisseminationBarrier(m, "B")
		total := m.Alloc("total", 4, 0)

		// Fill: each processor bins perProc values (register I0 counts).
		bin := func(p *Proc, f *Frame) int { return (p.ID() + f.I0) % bins }
		fill := repeat(perProc,
			func(p *Proc, f *Frame) OpStatus { return locks[bin(p, f)].FAcquire(p) },
			func(p *Proc, f *Frame) OpStatus { return p.FRead(hist[bin(p, f)]) },
			func(p *Proc, f *Frame) OpStatus { return p.FWrite(hist[bin(p, f)], p.Ret()+1) },
			func(p *Proc, f *Frame) OpStatus { return locks[bin(p, f)].FRelease(p) },
		)
		// Processor 0 sums the bins into register U0 and publishes it.
		var sum []stage
		for b := 0; b < bins; b++ {
			sum = append(sum, read(hist[b]), do(func(p *Proc, f *Frame) { f.U0 += p.Ret() }))
		}
		sum = append(sum, func(p *Proc, f *Frame) OpStatus { return p.FWrite(total, f.U0) })
		m.RunProgram(seq(
			fill,
			[]stage{wait(bar), do(func(p *Proc, f *Frame) {
				if p.ID() != 0 {
					f.PC += len(sum)
				}
			})},
			sum,
			[]stage{wait(bar), read(total), do(func(p *Proc, f *Frame) {
				// Every processor observes the published total. The whole
				// simulation runs on this goroutine, so the append is
				// race-free.
				if got := p.Ret(); got != uint32(procs*perProc) {
					fails = append(fails, fmt.Sprintf("proc %d read total %d, want %d",
						p.ID(), got, procs*perProc))
				}
			})},
		))
		return append(fails, coherenceErrors(m)...)
	}

	var labels []string
	var runs []func() []string
	for _, pr := range []Protocol{WI, PU, CU} {
		for _, procs := range []int{2, 8, 16} {
			pr, procs := pr, procs
			labels = append(labels, fmt.Sprintf("histogram/%v/p%d", pr, procs))
			runs = append(runs, func() []string { return run(pr, procs) })
		}
	}
	fanOut(t, labels, runs)
}

// TestIterativeSolver mimics a BSP iterative solver: local relaxation,
// halo exchange through shared strips, a max-residual reduction, and a
// convergence broadcast — every construct class in one program.
func TestIterativeSolver(t *testing.T) {
	run := func(pr Protocol) []string {
		const procs = 8
		const sweeps = 6
		var fails []string
		m := NewMachine(DefaultConfig(pr, procs))
		strips := make([]Addr, procs)
		for i := range strips {
			strips[i] = m.Alloc(fmt.Sprintf("strip%d", i), 64, i)
			m.Poke(strips[i], uint32(100+i))
		}
		bar := NewTreeBarrier(m, "B")
		red := NewSequentialReducer(m, "R", m.NewMagicBarrier())

		residuals := make([][]uint32, procs)
		// Register U0 holds the left halo, then the relaxed value.
		m.RunProgram(seq(repeat(sweeps,
			func(p *Proc, f *Frame) OpStatus { return p.FRead(strips[(p.ID()+procs-1)%procs]) },
			func(p *Proc, f *Frame) OpStatus {
				f.U0 = p.Ret()
				return p.FRead(strips[(p.ID()+1)%procs])
			},
			func(p *Proc, f *Frame) OpStatus {
				f.U0 = (f.U0 + p.Ret()) / 2
				return compute(16)(p, f)
			},
			func(p *Proc, f *Frame) OpStatus { return p.FWrite(strips[p.ID()], f.U0) },
			wait(bar),
			func(p *Proc, f *Frame) OpStatus { return red.FReduce(p, f.U0) },
			read(red.ResultAddr()),
			func(p *Proc, f *Frame) OpStatus {
				residuals[p.ID()] = append(residuals[p.ID()], p.Ret())
				return bar.FWait(p)
			},
		)))
		// All processors must have observed identical reduction results
		// each sweep.
		for s := 0; s < sweeps; s++ {
			for id := 1; id < procs; id++ {
				if residuals[id][s] != residuals[0][s] {
					fails = append(fails, fmt.Sprintf("sweep %d: proc %d saw %d, proc 0 saw %d",
						s, id, residuals[id][s], residuals[0][s]))
				}
			}
		}
		return append(fails, coherenceErrors(m)...)
	}

	var labels []string
	var runs []func() []string
	for _, pr := range []Protocol{WI, PU, CU} {
		pr := pr
		labels = append(labels, "solver/"+pr.String())
		runs = append(runs, func() []string { return run(pr) })
	}
	fanOut(t, labels, runs)
}

// TestProducerConsumerPipeline passes tokens through a chain of
// single-word mailboxes using spin waits, the pattern underlying flag
// synchronization.
func TestProducerConsumerPipeline(t *testing.T) {
	run := func(pr Protocol) []string {
		const procs = 8
		const tokens = 20
		m := NewMachine(DefaultConfig(pr, procs))
		boxes := make([]Addr, procs)
		for i := range boxes {
			boxes[i] = m.Alloc(fmt.Sprintf("box%d", i), 4, i)
		}
		sink := m.Alloc("sink", 4, procs-1)

		fence := func(p *Proc, f *Frame) OpStatus { return p.FFence() }
		// Processor 0 produces token k into box 0 once it is free.
		progs := roles{seq(repeat(tokens,
			func(p *Proc, f *Frame) OpStatus { return p.FSpinUntilEqual(boxes[0], 0) },
			fence,
			func(p *Proc, f *Frame) OpStatus { return p.FWrite(boxes[0], uint32(f.I0+1)) },
		))}
		// Stage id takes the token from the previous box (register U0),
		// frees that box, and passes the token on; the last one sinks it.
		for id := 1; id < procs; id++ {
			id := id
			take := []stage{
				func(p *Proc, f *Frame) OpStatus { return p.FSpinWhileEqual(boxes[id-1], 0) },
				func(p *Proc, f *Frame) OpStatus {
					f.U0 = p.Ret()
					return p.FFence()
				},
				func(p *Proc, f *Frame) OpStatus { return p.FWrite(boxes[id-1], 0) },
			}
			pass := []stage{
				func(p *Proc, f *Frame) OpStatus { return p.FSpinUntilEqual(boxes[id], 0) },
				func(p *Proc, f *Frame) OpStatus { return p.FWrite(boxes[id], f.U0) },
			}
			if id == procs-1 {
				pass = []stage{
					read(sink),
					func(p *Proc, f *Frame) OpStatus { return p.FWrite(sink, p.Ret()+f.U0) },
				}
			}
			progs = append(progs, seq(repeat(tokens, append(take, pass...)...)))
		}
		m.RunProgram(progs)
		var fails []string
		want := uint32(tokens * (tokens + 1) / 2)
		if got := coherentPeek(m, sink); got != want {
			fails = append(fails, fmt.Sprintf("sink = %d, want %d", got, want))
		}
		return append(fails, coherenceErrors(m)...)
	}

	var labels []string
	var runs []func() []string
	for _, pr := range []Protocol{WI, PU, CU} {
		pr := pr
		labels = append(labels, "pipeline/"+pr.String())
		runs = append(runs, func() []string { return run(pr) })
	}
	fanOut(t, labels, runs)
}

// TestAllConstructsOneProgram runs every lock, barrier, and reducer in a
// single program as a smoke-level compatibility matrix.
func TestAllConstructsOneProgram(t *testing.T) {
	run := func(pr Protocol) []string {
		m := NewMachine(DefaultConfig(pr, 8))
		locks := []Lock{
			NewTicketLock(m, "tk"),
			NewMCSLock(m, "mcs", false),
			NewMCSLock(m, "uc", true),
			NewTASLock(m, "tas"),
			NewTTASLock(m, "ttas"),
		}
		barriers := []Barrier{
			NewCentralBarrier(m, "cb"),
			NewDisseminationBarrier(m, "db"),
			NewTreeBarrier(m, "tb"),
		}
		// One counter per lock: different locks do not exclude each other.
		ctrs := make([]Addr, len(locks))
		for i := range ctrs {
			ctrs[i] = m.Alloc(fmt.Sprintf("ctr%d", i), 4, 0)
		}
		var prog Steps
		for i, l := range locks {
			ctr := ctrs[i]
			prog = append(prog, critical(l,
				read(ctr),
				func(p *Proc, f *Frame) OpStatus { return p.FWrite(ctr, p.Ret()+1) })...)
		}
		for _, b := range barriers {
			prog = append(prog, wait(b))
		}
		m.RunProgram(prog)
		var fails []string
		for i := range locks {
			if got := coherentPeek(m, ctrs[i]); got != 8 {
				fails = append(fails, fmt.Sprintf("counter %d = %d, want 8", i, got))
			}
		}
		return append(fails, coherenceErrors(m)...)
	}

	var labels []string
	var runs []func() []string
	for _, pr := range []Protocol{WI, PU, CU} {
		pr := pr
		labels = append(labels, "allconstructs/"+pr.String())
		runs = append(runs, func() []string { return run(pr) })
	}
	fanOut(t, labels, runs)
}
