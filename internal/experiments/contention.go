package experiments

import (
	"fmt"
	"sort"

	"coherencesim/internal/proto"
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
	HotNode     int
	HotFlits    uint64
	MeanFlits   float64
	HotMemBusy  uint64
	MeanMemBusy float64
	// TopNodes lists the three busiest nodes by combined NI flits.
	TopNodes []int
}

// AnalyzeLockContentions runs the contention analysis for several
// protocols, one point each, returning the reports in input order: the
// ticket-lock loop at the traffic machine size, and where its traffic
// concentrates. The lock lives at node 0, so the hotspot lands there;
// the ratio against the mean shows how centralized the construct's
// communication is.
func AnalyzeLockContentions(o Options, prs []proto.Protocol) []*ContentionReport {
	pts := make([]Point, len(prs))
	for i, pr := range prs {
		pts[i] = o.local().lockPoint(workload.Ticket, workload.PlainLock, pr, o.TrafficProcs)
		pts[i].NodeLoad = true
		pts[i].Label = fmt.Sprintf("contention/%v/P=%d", pr, o.TrafficProcs)
	}
	out := make([]*ContentionReport, len(prs))
	for i, res := range o.local().runPoints(pts) {
		out[i] = contentionReport(fmt.Sprintf("ticket lock, %v, P=%d", prs[i], o.TrafficProcs), res)
	}
	return out
}

// AnalyzeLockContention is AnalyzeLockContentions for one protocol.
func AnalyzeLockContention(o Options, pr proto.Protocol) *ContentionReport {
	return AnalyzeLockContentions(o, []proto.Protocol{pr})[0]
}

// contentionReport summarizes a node-load point's per-node loads.
func contentionReport(workload string, res PointResult) *ContentionReport {
	r, nodes := &ContentionReport{Workload: workload}, res.Nodes
	var flitSum, memSum uint64
	order := make([]int, len(nodes))
	for i, n := range nodes {
		order[i] = i
		flitSum += n.Flits
		memSum += n.MemBusy
		if n.Flits > r.HotFlits {
			r.HotNode, r.HotFlits = i, n.Flits
		}
	}
	r.HotMemBusy = nodes[r.HotNode].MemBusy
	r.MeanFlits = float64(flitSum) / float64(len(nodes))
	r.MeanMemBusy = float64(memSum) / float64(len(nodes))
	sort.Slice(order, func(a, b int) bool { return nodes[order[a]].Flits > nodes[order[b]].Flits })
	r.TopNodes = order[:min(len(order), 3)]
	return r
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
