package experiments

import (
	"fmt"

	"coherencesim/internal/classify"
	"coherencesim/internal/proto"
	"coherencesim/internal/stats"
	"coherencesim/internal/workload"
)

// This file implements the ablation studies DESIGN.md calls out: the CU
// threshold sweep, the PU retention optimization, and the spin-wait
// model (compressed watcher wake-ups versus explicit polling).

// CUThresholdAblation measures MCS lock latency and update traffic under
// CU across competitive-update thresholds (the paper fixes 4).
type CUThresholdAblation struct {
	Thresholds []uint8
	Latency    map[uint8]float64
	Updates    map[uint8]uint64
	DropMisses map[uint8]uint64
}

// AblateCUThreshold sweeps the CU threshold on the MCS lock workload at
// the traffic machine size, one point per threshold.
func AblateCUThreshold(o Options, thresholds []uint8) *CUThresholdAblation {
	a := &CUThresholdAblation{
		Thresholds: thresholds,
		Latency:    make(map[uint8]float64),
		Updates:    make(map[uint8]uint64),
		DropMisses: make(map[uint8]uint64),
	}
	pts := make([]Point, len(thresholds))
	for i, th := range thresholds {
		pts[i] = o.local().lockPoint(workload.MCS, workload.PlainLock, proto.CU, o.TrafficProcs)
		pts[i].CUThreshold = th
		pts[i].Label = fmt.Sprintf("ablation/cu-threshold/thr=%d", th)
	}
	for i, res := range o.local().runPoints(pts) {
		th := thresholds[i]
		a.Latency[th] = res.Latency
		a.Updates[th] = res.Updates.Total()
		a.DropMisses[th] = res.Misses[classify.MissDrop]
	}
	return a
}

// Table renders the threshold sweep.
func (a *CUThresholdAblation) Table() *stats.Table {
	cols := []string{"latency", "updates", "drop misses"}
	rows := make([]string, len(a.Thresholds))
	for i, th := range a.Thresholds {
		rows[i] = fmt.Sprintf("thr=%d", th)
	}
	t := stats.NewTable("Ablation: competitive-update threshold (MCS lock, CU)", cols, rows)
	for i, th := range a.Thresholds {
		t.Set(i, 0, "%.1f", a.Latency[th])
		t.Set(i, 1, "%d", a.Updates[th])
		t.Set(i, 2, "%d", a.DropMisses[th])
	}
	return t
}

// RetentionAblation compares PU with and without the private-block
// retention optimization.
type RetentionAblation struct {
	Workload              string
	LatencyOn, LatencyOff float64
	UpdatesOn, UpdatesOff uint64
	WriteThroughOn        uint64
	WriteThroughOff       uint64
}

// AblatePURetention measures the retention optimization on the access
// pattern it targets, the retention family's private-phase rewrites
// (workload.PrivateRewriteLoop), over 40 phases at the traffic machine
// size.
func AblatePURetention(o Options) *RetentionAblation {
	on := Point{Family: FamilyRetention, Protocol: proto.PU, Procs: o.TrafficProcs, Iterations: 40}
	off := on
	on.Label = "ablation/retention/on"
	off.NoRetention, off.Label = true, "ablation/retention/off"
	pair := o.local().runPoints([]Point{on, off})
	return &RetentionAblation{
		Workload:        fmt.Sprintf("private-phase rewrites, PU, P=%d", o.TrafficProcs),
		LatencyOn:       pair[0].Latency,
		LatencyOff:      pair[1].Latency,
		UpdatesOn:       pair[0].Updates.Total(),
		UpdatesOff:      pair[1].Updates.Total(),
		WriteThroughOn:  pair[0].WriteThroughs,
		WriteThroughOff: pair[1].WriteThroughs,
	}
}

// Table renders the retention comparison.
func (a *RetentionAblation) Table() *stats.Table {
	cols := []string{"latency", "updates", "write-throughs"}
	t := stats.NewTable("Ablation: PU private-block retention ("+a.Workload+")",
		cols, []string{"retention on", "retention off"})
	t.Set(0, 0, "%.1f", a.LatencyOn)
	t.Set(0, 1, "%d", a.UpdatesOn)
	t.Set(0, 2, "%d", a.WriteThroughOn)
	t.Set(1, 0, "%.1f", a.LatencyOff)
	t.Set(1, 1, "%d", a.UpdatesOff)
	t.Set(1, 2, "%d", a.WriteThroughOff)
	return t
}

// SpinModelAblation compares compressed spinning (watcher wake-ups)
// against explicit polling loops: traffic must match; only simulator
// cost and sub-poll-interval timing may differ.
type SpinModelAblation struct {
	Workload                    string
	LatencyWatch, LatencyPoll   float64
	MissesWatch, MissesPoll     uint64
	UpdatesWatch, UpdatesPoll   uint64
	MessagesWatch, MessagesPoll uint64
}

// AblateSpinModel runs the ticket lock workload under both spin models:
// compressed, and polling every 2 cycles.
func AblateSpinModel(o Options, pr proto.Protocol) *SpinModelAblation {
	watch := o.local().lockPoint(workload.Ticket, workload.PlainLock, pr, o.TrafficProcs)
	poll := watch
	watch.Label = fmt.Sprintf("ablation/spin/%v/compressed", pr)
	poll.SpinPoll, poll.Label = 2, fmt.Sprintf("ablation/spin/%v/polling", pr)
	pair := o.local().runPoints([]Point{watch, poll})
	w, pl := pair[0], pair[1]
	return &SpinModelAblation{
		Workload:      fmt.Sprintf("ticket lock, %v, P=%d", pr, o.TrafficProcs),
		LatencyWatch:  w.Latency,
		LatencyPoll:   pl.Latency,
		MissesWatch:   w.Misses.TotalMisses(),
		MissesPoll:    pl.Misses.TotalMisses(),
		UpdatesWatch:  w.Updates.Total(),
		UpdatesPoll:   pl.Updates.Total(),
		MessagesWatch: w.NetMessages,
		MessagesPoll:  pl.NetMessages,
	}
}

// Table renders the spin-model comparison.
func (a *SpinModelAblation) Table() *stats.Table {
	cols := []string{"latency", "misses", "updates", "messages"}
	t := stats.NewTable("Ablation: spin-wait model ("+a.Workload+")",
		cols, []string{"compressed", "polling"})
	t.Set(0, 0, "%.1f", a.LatencyWatch)
	t.Set(0, 1, "%d", a.MissesWatch)
	t.Set(0, 2, "%d", a.UpdatesWatch)
	t.Set(0, 3, "%d", a.MessagesWatch)
	t.Set(1, 0, "%.1f", a.LatencyPoll)
	t.Set(1, 1, "%d", a.MissesPoll)
	t.Set(1, 2, "%d", a.UpdatesPoll)
	t.Set(1, 3, "%d", a.MessagesPoll)
	return t
}
