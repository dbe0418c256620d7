package workload

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"coherencesim/internal/machine"
	"coherencesim/internal/proto"
)

// requireEqualResults compares two results (including per-processor
// stats) field for field.
func requireEqualResults(t *testing.T, label string, fresh, forked any) {
	t.Helper()
	if !reflect.DeepEqual(fresh, forked) {
		t.Errorf("%s: forked run differs from fresh two-phase run\nfresh:  %+v\nforked: %+v", label, fresh, forked)
	}
}

// forkParams are the parameters every fork test runs on. They attach no
// observer: a fork carries the simulation only, and machine.Snapshot
// refuses a machine with metrics or a breakdown attached.
func forkParams(pr proto.Protocol, procs, iters int) Params {
	return Params{Procs: procs, Protocol: pr, Iterations: iters, HoldCycles: 50}
}

// TestWarmForkLockMatchesFresh forks every lock kind and variant from a
// warm checkpoint and requires byte-identical results to the two-phase
// runner a sweep point executes (both phases on one fresh machine),
// across protocols and sizes — the checkpoint API and the sweep path
// cannot drift.
func TestWarmForkLockMatchesFresh(t *testing.T) {
	for _, pr := range []proto.Protocol{proto.WI, proto.PU, proto.CU} {
		for _, procs := range []int{4, 16} {
			for _, kind := range []LockKind{Ticket, MCS, UpdateConsciousMCS} {
				for _, v := range []LockVariant{PlainLock, RandomPause, WorkRatio} {
					label := fmt.Sprintf("%v/P%d/%v/variant%d", pr, procs, kind, v)
					p := forkParams(pr, procs, 1600)
					fresh := TwoPhaseLockLoop(p, kind, v)
					w := WarmLockLoop(p, kind, v)
					requireEqualResults(t, label, fresh, w.Run())
				}
			}
		}
	}
}

// forkAtBoundary runs the warm-up program on one machine, checkpoints it
// at the phase boundary and runs the rest on a second machine restored
// from the checkpoint — what WarmLockLoop does for lock loops, spelled
// out here for the constructs that have no fork driver of their own, so
// their ForkState capture stays held to the two-phase runners.
func forkAtBoundary(p Params, build func(m *machine.Machine) (warm, rest Program)) machine.Result {
	first := p.newMachine()
	warm, _ := build(first)
	first.RunProgram(warm)
	snap := first.Snapshot()
	first.Release()

	m := p.newMachine()
	defer m.Release()
	_, rest := build(m)
	m.RestoreFrom(snap)
	return m.RunProgram(rest)
}

// TestWarmForkBarrierMatchesFresh does the same for every barrier kind.
func TestWarmForkBarrierMatchesFresh(t *testing.T) {
	for _, pr := range []proto.Protocol{proto.WI, proto.CU} {
		for _, procs := range []int{4, 16} {
			for _, kind := range []BarrierKind{Central, Dissemination, Tree} {
				label := fmt.Sprintf("%v/P%d/%v", pr, procs, kind)
				p := forkParams(pr, procs, 200)
				fresh := TwoPhaseBarrierLoop(p, kind)
				warm, rest := warmSplit(p.Iterations)
				res := forkAtBoundary(p, func(m *machine.Machine) (Program, Program) {
					b := newBarrier(m, kind)
					return &barrierLoopProgram{b: b, iters: warm}, &barrierLoopProgram{b: b, iters: rest}
				})
				requireEqualResults(t, label, fresh, barrierResult(res, warm+rest))
			}
		}
	}
}

// TestWarmForkReductionMatchesFresh does the same for both reduction
// strategies, balanced and imbalanced (the imbalanced variant draws
// from the per-processor random streams, exercising stream
// repositioning).
func TestWarmForkReductionMatchesFresh(t *testing.T) {
	for _, pr := range []proto.Protocol{proto.WI, proto.PU} {
		for _, kind := range []ReductionKind{Sequential, Parallel} {
			for _, imbal := range []bool{false, true} {
				label := fmt.Sprintf("%v/%v/imbal=%v", pr, kind, imbal)
				p := forkParams(pr, 8, 200)
				fresh := TwoPhaseReductionLoop(p, kind, imbal)
				warm, rest := warmSplit(p.Iterations)
				res := forkAtBoundary(p, func(m *machine.Machine) (Program, Program) {
					red := newReducer(m, kind)
					return reductionProgram(p, imbal, red, warm, 0), reductionProgram(p, imbal, red, rest, warm)
				})
				requireEqualResults(t, label, fresh, reductionResult(res, warm+rest))
			}
		}
	}
}

// TestWarmForkConcurrentRuns forks many measurement runs concurrently
// from a single shared checkpoint: the snapshot must be read-only under
// RestoreFrom, so every fork reports the identical result.
func TestWarmForkConcurrentRuns(t *testing.T) {
	p := forkParams(proto.CU, 8, 1600)
	w := WarmLockLoop(p, MCS, RandomPause)
	want := w.Run()
	const forks = 8
	got := make([]LockResult, forks)
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = w.Run()
		}(i)
	}
	wg.Wait()
	for i := range got {
		requireEqualResults(t, fmt.Sprintf("fork %d", i), want, got[i])
	}
}
