package constructs

import (
	"fmt"
	"math/rand"
	"testing"

	"coherencesim/internal/machine"
	"coherencesim/internal/proto"
	"coherencesim/internal/sim"
	"coherencesim/internal/trace"
)

// Property tests: randomized trials of the invariants the constructs
// must uphold under every protocol — mutual exclusion and FIFO admission
// for the locks, no-early-escape for the barriers. Trials use fixed
// seeds so failures replay; machine sizes, iteration counts, and arrival
// jitter are drawn fresh per trial. The shared Go-level counters are
// race-free because the whole simulation runs on the test's goroutine.

// csRecord is one critical-section admission observed at Acquire return.
type csRecord struct {
	proc int
	tick uint32 // ticket number (ticket lock trials only)
}

// runLockTrial runs a randomized lock workload and returns the admission
// sequence plus any mutual-exclusion violations.
func runLockTrial(mk func(m *machine.Machine) Lock, pr proto.Protocol, procs, iters int,
	rng *rand.Rand, tl *trace.Log) (admissions []csRecord, violations []string) {
	cfg := machine.DefaultConfig(pr, procs)
	cfg.Trace = tl
	m := machine.New(cfg)
	l := mk(m)
	jitter := make([]sim.Time, procs)
	for i := range jitter {
		jitter[i] = sim.Time(1 + rng.Intn(2000))
	}
	inCS := 0
	section := critical(l,
		do(func(p *machine.Proc, f *machine.Frame) {
			inCS++
			if inCS != 1 {
				violations = append(violations,
					fmt.Sprintf("proc %d entered with %d already inside", p.ID(), inCS-1))
			}
			rec := csRecord{proc: p.ID()}
			if tk, ok := l.(*TicketLock); ok {
				rec.tick = tk.myTick[p.ID()]
			}
			admissions = append(admissions, rec)
		}),
		computeBy(func(*machine.Proc) sim.Time { return sim.Time(10 + rng.Intn(90)) }),
		do(func(p *machine.Proc, f *machine.Frame) { inCS-- }))
	m.RunProgram(seq(
		[]stage{computeBy(func(p *machine.Proc) sim.Time { return jitter[p.ID()] })},
		repeat(iters, section...),
	))
	return admissions, violations
}

func TestPropertyLocksMutualExclusion(t *testing.T) {
	for name, mk := range lockFactories() {
		for _, pr := range allProtocols() {
			t.Run(fmt.Sprintf("%s/%v", name, pr), func(t *testing.T) {
				for seed := int64(1); seed <= 6; seed++ {
					rng := rand.New(rand.NewSource(seed))
					procs := 2 + rng.Intn(7)
					iters := 2 + rng.Intn(4)
					admissions, violations := runLockTrial(mk, pr, procs, iters, rng, nil)
					for _, v := range violations {
						t.Errorf("seed %d (P=%d iters=%d): %s", seed, procs, iters, v)
					}
					if len(admissions) != procs*iters {
						t.Errorf("seed %d: %d admissions, want %d",
							seed, len(admissions), procs*iters)
					}
					perProc := make(map[int]int)
					for _, a := range admissions {
						perProc[a.proc]++
					}
					for id, c := range perProc {
						if c != iters {
							t.Errorf("seed %d: proc %d admitted %d times, want %d",
								seed, id, c, iters)
						}
					}
				}
			})
		}
	}
}

// TestPropertyTicketLockFIFO checks FIFO admission directly against the
// dispenser: the sequence of ticket numbers observed inside the critical
// section must be exactly 0, 1, 2, ... — tickets are served in the order
// they were drawn, under every protocol.
func TestPropertyTicketLockFIFO(t *testing.T) {
	for _, pr := range allProtocols() {
		t.Run(pr.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 6; seed++ {
				rng := rand.New(rand.NewSource(seed))
				procs := 2 + rng.Intn(7)
				iters := 2 + rng.Intn(4)
				mk := func(m *machine.Machine) Lock { return NewTicketLock(m, "L") }
				admissions, _ := runLockTrial(mk, pr, procs, iters, rng, nil)
				for i, a := range admissions {
					if a.tick != uint32(i) {
						t.Fatalf("seed %d (P=%d iters=%d): admission %d holds ticket %d; order %v",
							seed, procs, iters, i, a.tick, admissions)
					}
				}
			}
		})
	}
}

// TestPropertyMCSLockFIFO checks that both MCS variants serve processors
// in enqueue order. The enqueue order is recovered from the operation
// trace by following the queue's predecessor chain: with one acquire per
// processor, each processor's first atomic on the tail word is its
// FetchStore (the release-path CompareSwap can only come later), and the
// old value it returns names the predecessor's queue node. Trace event
// order itself is unusable — events are stamped when the response
// reaches the processor, not when the atomic serializes at the home.
func TestPropertyMCSLockFIFO(t *testing.T) {
	variants := map[string]bool{"mcs": false, "ucmcs": true}
	for name, uc := range variants {
		for _, pr := range allProtocols() {
			t.Run(fmt.Sprintf("%s/%v", name, pr), func(t *testing.T) {
				for seed := int64(1); seed <= 6; seed++ {
					rng := rand.New(rand.NewSource(seed))
					procs := 2 + rng.Intn(7)
					tl := trace.NewLog(1 << 16)
					var lock *MCSLock
					mk := func(m *machine.Machine) Lock {
						lock = NewMCSLock(m, "L", uc)
						return lock
					}
					admissions, _ := runLockTrial(mk, pr, procs, 1, rng, tl)
					pred := make(map[int]uint32) // proc -> old tail at its enqueue
					for _, e := range tl.Events() {
						if e.Kind == trace.Atomic && e.Addr == uint32(lock.tail) {
							if _, ok := pred[e.Proc]; !ok {
								pred[e.Proc] = e.Val
							}
						}
					}
					if len(pred) != procs || len(admissions) != procs {
						t.Fatalf("seed %d: %d enqueues, %d admissions, want %d",
							seed, len(pred), len(admissions), procs)
					}
					// The queue can drain between arrivals (a FetchStore
					// returning 0 starts a fresh chain), so the property
					// is per-link: a processor that enqueued behind a
					// predecessor is served immediately after it.
					served := make(map[int]int, procs)
					for i, a := range admissions {
						served[a.proc] = i
					}
					ownerOf := make(map[uint32]int, procs)
					for id := 0; id < procs; id++ {
						ownerOf[uint32(lock.node(id))] = id
					}
					for id, old := range pred {
						if old == 0 {
							continue
						}
						before, ok := ownerOf[old]
						if !ok {
							t.Fatalf("seed %d: proc %d enqueued behind unknown node %d",
								seed, id, old)
						}
						if served[id] != served[before]+1 {
							t.Fatalf("seed %d (P=%d): proc %d enqueued behind proc %d but served %d after it (order %v)",
								seed, procs, id, before, served[id]-served[before], admissions)
						}
					}
				}
			})
		}
	}
}

// TestPropertyBarriersNoEarlyEscape checks the barrier safety property
// on randomized sizes and arrival jitter: whenever a processor returns
// from Wait, every processor has arrived at that episode.
func TestPropertyBarriersNoEarlyEscape(t *testing.T) {
	for name, mk := range barrierFactories() {
		for _, pr := range allProtocols() {
			t.Run(fmt.Sprintf("%s/%v", name, pr), func(t *testing.T) {
				for seed := int64(1); seed <= 6; seed++ {
					rng := rand.New(rand.NewSource(seed))
					procs := 2 + rng.Intn(15)
					episodes := 3 + rng.Intn(4)
					jitter := make([][]sim.Time, procs)
					for i := range jitter {
						jitter[i] = make([]sim.Time, episodes)
						for ep := range jitter[i] {
							jitter[i][ep] = sim.Time(1 + rng.Intn(500))
						}
					}
					m := machine.New(machine.DefaultConfig(pr, procs))
					b := mk(m)
					arrived := make([]int, episodes)
					m.RunProgram(seq(repeat(episodes,
						func(p *machine.Proc, f *machine.Frame) machine.OpStatus {
							return compute(jitter[p.ID()][f.I0])(p, f)
						},
						func(p *machine.Proc, f *machine.Frame) machine.OpStatus {
							arrived[f.I0]++
							return b.FWait(p)
						},
						do(func(p *machine.Proc, f *machine.Frame) {
							if arrived[f.I0] != procs {
								t.Errorf("seed %d (P=%d): proc %d escaped episode %d with %d/%d arrived",
									seed, procs, p.ID(), f.I0, arrived[f.I0], procs)
							}
						}),
					)))
				}
			})
		}
	}
}
