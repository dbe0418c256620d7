// Quickstart: build a small simulated multiprocessor, protect a shared
// counter with a ticket lock, and inspect the communication the run
// generated under the chosen coherence protocol.
package main

import (
	"fmt"

	"coherencesim"
)

// Short names for the stage signature.
type (
	proc   = coherencesim.Proc
	frame  = coherencesim.Frame
	status = coherencesim.OpStatus
)

func main() {
	// An 8-processor machine running the pure-update protocol.
	cfg := coherencesim.DefaultConfig(coherencesim.PU, 8)
	m := coherencesim.NewMachine(cfg)

	// Shared data: one counter homed at node 0, plus a ticket lock.
	counter := m.Alloc("counter", 4, 0)
	lock := coherencesim.NewTicketLock(m, "L")

	// Every processor increments the counter 100 times under the lock.
	// Each stage issues one operation; register I0 counts iterations and
	// the last stage jumps back to the loop head.
	res := m.RunProgram(coherencesim.Steps{
		func(p *proc, f *frame) status {
			if f.I0 == 100 {
				f.PC = 4 // past the last stage: done
				return coherencesim.OpDone
			}
			return lock.FAcquire(p)
		},
		func(p *proc, f *frame) status {
			return p.FRead(counter)
		},
		func(p *proc, f *frame) status {
			return p.FWrite(counter, p.Ret()+1)
		},
		func(p *proc, f *frame) status {
			f.I0++
			f.PC = 0
			return lock.FRelease(p)
		},
	})

	fmt.Printf("final counter value: %d (want %d)\n", m.Peek(counter), 8*100)
	fmt.Printf("execution time:      %d cycles\n", res.Cycles)
	fmt.Printf("cache misses:        %d (cold %d, true %d, false %d)\n",
		res.Misses.TotalMisses(),
		res.Misses[coherencesim.MissCold],
		res.Misses[coherencesim.MissTrue],
		res.Misses[coherencesim.MissFalse])
	fmt.Printf("update messages:     %d (%d useful)\n",
		res.Updates.Total(), res.Updates.Useful())
	fmt.Printf("network messages:    %d (%d flits)\n",
		res.Net.Messages, res.Net.Flits)
}
