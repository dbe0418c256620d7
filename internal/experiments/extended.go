package experiments

import (
	"coherencesim/internal/constructs"
	"coherencesim/internal/machine"
	"coherencesim/internal/proto"
	"coherencesim/internal/workload"
)

// extAlgo is one algorithm of the extended suite: an index into
// extendedAlgos, which is also the extlock point's stable Kind.
type extAlgo int

func (a extAlgo) String() string { return extendedAlgos[a].name }

// extendedAlgos is the full Mellor-Crummey & Scott suite: the paper's
// three candidates plus test-and-set (with exponential backoff) and
// test-and-test-and-set.
var extendedAlgos = []struct {
	name string
	mk   func(m *machine.Machine) constructs.Lock
}{
	{"tas", func(m *machine.Machine) constructs.Lock { return constructs.NewTASLock(m, "lock") }},
	{"ttas", func(m *machine.Machine) constructs.Lock { return constructs.NewTTASLock(m, "lock") }},
	{"tk", func(m *machine.Machine) constructs.Lock { return constructs.NewTicketLock(m, "lock") }},
	{"MCS", func(m *machine.Machine) constructs.Lock { return constructs.NewMCSLock(m, "lock", false) }},
	{"uc", func(m *machine.Machine) constructs.Lock { return constructs.NewMCSLock(m, "lock", true) }},
}

// ExtendedLockSweep extends figure 8 with the two other classic spin
// locks from the Mellor-Crummey & Scott suite (test-and-set with
// exponential backoff, and test-and-test-and-set), measuring all five
// algorithms under all three protocols — the comparison the paper's
// Section 2.1 references when justifying its ticket/MCS selection.
func ExtendedLockSweep(o Options) *LatencySweep {
	algos := make([]extAlgo, len(extendedAlgos))
	for i := range algos {
		algos[i] = extAlgo(i)
	}
	return latencySweep(o, "Extended lock sweep", "avg acquire-release latency (cycles)",
		algos,
		func(alg extAlgo, pr proto.Protocol, procs int) Point {
			return o.extLockPoint(int(alg), pr, procs)
		})
}

// runExtLock measures the paper's lock synthetic program (workload's
// lock loop) over one algorithm of the extended suite.
func runExtLock(alg extAlgo, pr proto.Protocol, procs, iterations int) workload.LockResult {
	p := workload.DefaultLockParams(pr, procs)
	p.Iterations = iterations
	m := machine.Acquire(machine.DefaultConfig(pr, procs))
	defer m.Release()
	return workload.LockLoopOn(m, extendedAlgos[alg].mk(m), p)
}
