package experiments

import (
	"fmt"
	"sort"

	"coherencesim/internal/constructs"
	"coherencesim/internal/machine"
	"coherencesim/internal/proto"
	"coherencesim/internal/runner"
	"coherencesim/internal/stats"
	"coherencesim/internal/workload"
)

// ContentionReport quantifies the resource contention the paper invokes
// to explain the update protocols' lock behaviour ("update messages ...
// only lead to performance degradation if they end up causing resource
// contention"): per-node network-interface occupancy and memory-module
// busy time for a centralized-lock workload, which concentrates traffic
// at the lock's home node.
type ContentionReport struct {
	Workload    string
	Cycles      uint64
	HotNode     int
	HotFlits    uint64
	MeanFlits   float64
	HotMemBusy  uint64
	MeanMemBusy float64
	// TopNodes lists the three busiest nodes by combined NI flits.
	TopNodes []int
}

// SimulatedCycles reports the underlying run's simulated time (the
// runner pool's CycleReporter).
func (r *ContentionReport) SimulatedCycles() uint64 { return r.Cycles }

// AnalyzeLockContentions runs the contention analysis for several
// protocols, one pool job each, returning the reports in input order.
func AnalyzeLockContentions(o Options, prs []proto.Protocol) []*ContentionReport {
	jobs := make([]runner.Job[*ContentionReport], len(prs))
	for i, pr := range prs {
		pr := pr
		jobs[i] = runner.Job[*ContentionReport]{
			Label: fmt.Sprintf("contention/%v/P=%d", pr, o.TrafficProcs),
			Run:   func() *ContentionReport { return AnalyzeLockContention(o, pr) },
		}
	}
	return runner.Map(o.Runner, jobs)
}

// AnalyzeLockContention runs the ticket-lock loop and reports where the
// machine's traffic concentrates. The lock lives at node 0, so the
// hotspot lands there; the ratio against the mean shows how centralized
// the construct's communication is.
func AnalyzeLockContention(o Options, pr proto.Protocol) *ContentionReport {
	procs := o.TrafficProcs
	p := workload.DefaultLockParams(pr, procs)
	p.Iterations = o.LockIterations
	// The run's machine is built here, not by workload.LockLoop, because
	// the per-node counters are read off it after the run.
	m := machine.Acquire(machine.DefaultConfig(pr, procs))
	defer m.Release()
	res := workload.LockLoopOn(m, constructs.NewTicketLock(m, "lock"), p)

	nw := m.System().Network()
	flits := make([]uint64, procs)
	var flitSum uint64
	for i := 0; i < procs; i++ {
		out, in := nw.NodeFlits(i)
		flits[i] = out + in
		flitSum += flits[i]
	}
	hot, hotFlits := nw.Hotspot()

	var memSum uint64
	var hotMem uint64
	for i := 0; i < procs; i++ {
		busy := m.System().Memory(i).Stats().BusyCycles
		memSum += busy
		if i == hot {
			hotMem = busy
		}
	}

	order := make([]int, procs)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return flits[order[a]] > flits[order[b]] })
	top := order
	if len(top) > 3 {
		top = top[:3]
	}

	return &ContentionReport{
		Workload:    fmt.Sprintf("ticket lock, %v, P=%d", pr, procs),
		Cycles:      res.Cycles,
		HotNode:     hot,
		HotFlits:    hotFlits,
		MeanFlits:   float64(flitSum) / float64(procs),
		HotMemBusy:  hotMem,
		MeanMemBusy: float64(memSum) / float64(procs),
		TopNodes:    append([]int(nil), top...),
	}
}

// Table renders the report.
func (r *ContentionReport) Table() *stats.Table {
	cols := []string{"hotspot", "mean", "ratio"}
	t := stats.NewTable("Contention analysis ("+r.Workload+")",
		cols, []string{"NI flits", "memory busy cycles"})
	t.Set(0, 0, "%d (node %d)", r.HotFlits, r.HotNode)
	t.Set(0, 1, "%.0f", r.MeanFlits)
	t.Set(0, 2, "%.1fx", ratio(float64(r.HotFlits), r.MeanFlits))
	t.Set(1, 0, "%d", r.HotMemBusy)
	t.Set(1, 1, "%.0f", r.MeanMemBusy)
	t.Set(1, 2, "%.1fx", ratio(float64(r.HotMemBusy), r.MeanMemBusy))
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
