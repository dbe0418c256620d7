// Stencil: a bulk-synchronous iterative computation — the workload class
// whose barrier cost the paper's Section 4.2 isolates. Each processor
// owns a strip of a 1-D grid, updates it from its neighbours' halo
// cells, and crosses a barrier every sweep. The example runs the same
// computation with all three barrier algorithms under the chosen
// protocol and reports how much of the run each barrier consumed.
package main

import (
	"flag"
	"fmt"
	"strings"

	"coherencesim"
)

// Short names for the stage signature.
type (
	proc   = coherencesim.Proc
	frame  = coherencesim.Frame
	status = coherencesim.OpStatus
)

const (
	stripWords = 16 // one cache block per processor strip
	sweeps     = 200
)

func run(protocol coherencesim.Protocol, procs int, mkBarrier func(m *coherencesim.Machine) coherencesim.Barrier) (total uint64, updatesUseful, updatesAll uint64) {
	m := coherencesim.NewMachine(coherencesim.DefaultConfig(protocol, procs))
	// One strip per processor, homed at its owner; neighbours read the
	// strip's first word (the halo exchange).
	strips := make([]coherencesim.Addr, procs)
	for i := range strips {
		strips[i] = m.Alloc(fmt.Sprintf("strip%d", i), stripWords*4, i)
	}
	b := mkBarrier(m)
	// One stage per operation. Registers: I0 sweep, U0 left halo value.
	left := func(p *proc) coherencesim.Addr { return strips[(p.ID()+procs-1)%procs] }
	right := func(p *proc) coherencesim.Addr { return strips[(p.ID()+1)%procs] }
	res := m.RunProgram(coherencesim.Steps{
		// Halo reads from both neighbours, then local update work.
		func(p *proc, f *frame) status {
			if f.I0 == sweeps {
				f.PC = 5 // past the last stage: done
				return coherencesim.OpDone
			}
			return p.FRead(left(p))
		},
		func(p *proc, f *frame) status {
			f.U0 = p.Ret()
			return p.FRead(right(p))
		},
		func(p *proc, f *frame) status {
			if !p.FCompute(stripWords) { // one cycle per point
				return coherencesim.OpBlocked
			}
			return coherencesim.OpDone
		},
		func(p *proc, f *frame) status {
			return p.FWrite(strips[p.ID()], f.U0+p.Ret()+uint32(f.I0))
		},
		func(p *proc, f *frame) status {
			f.I0++
			f.PC = 0
			return b.FWait(p)
		},
	})
	return res.Cycles, res.Updates.Useful(), res.Updates.Total()
}

func main() {
	protoName := flag.String("protocol", "PU", "coherence protocol: WI, PU, CU")
	procs := flag.Int("procs", 32, "processors")
	flag.Parse()

	var protocol coherencesim.Protocol
	switch strings.ToUpper(*protoName) {
	case "WI":
		protocol = coherencesim.WI
	case "PU":
		protocol = coherencesim.PU
	case "CU":
		protocol = coherencesim.CU
	default:
		fmt.Println("unknown protocol", *protoName)
		return
	}

	barriers := map[string]func(m *coherencesim.Machine) coherencesim.Barrier{
		"centralized": func(m *coherencesim.Machine) coherencesim.Barrier { return coherencesim.NewCentralBarrier(m, "B") },
		"dissemination": func(m *coherencesim.Machine) coherencesim.Barrier {
			return coherencesim.NewDisseminationBarrier(m, "B")
		},
		"tree": func(m *coherencesim.Machine) coherencesim.Barrier { return coherencesim.NewTreeBarrier(m, "B") },
	}

	fmt.Printf("1-D stencil, %d sweeps, %d processors, %v protocol\n\n", sweeps, *procs, protocol)
	for _, name := range []string{"centralized", "dissemination", "tree"} {
		cycles, useful, all := run(protocol, *procs, barriers[name])
		perSweep := float64(cycles) / sweeps
		fmt.Printf("%-14s %8d cycles total  %7.1f cycles/sweep", name, cycles, perSweep)
		if all > 0 {
			fmt.Printf("  updates %d (%.0f%% useful)", all, 100*float64(useful)/float64(all))
		}
		fmt.Println()
	}
	fmt.Println("\nThe paper's conclusion: pick the dissemination barrier under an")
	fmt.Println("update-based protocol; it is the best combination at every size.")
}
