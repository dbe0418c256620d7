package experiments

import (
	"fmt"

	"coherencesim/internal/classify"
	"coherencesim/internal/machine"
	"coherencesim/internal/proto"
	"coherencesim/internal/runner"
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
// the traffic machine size, one pool job per threshold.
func AblateCUThreshold(o Options, thresholds []uint8) *CUThresholdAblation {
	a := &CUThresholdAblation{
		Thresholds: thresholds,
		Latency:    make(map[uint8]float64),
		Updates:    make(map[uint8]uint64),
		DropMisses: make(map[uint8]uint64),
	}
	jobs := make([]runner.Job[workload.LockResult], len(thresholds))
	for i, th := range thresholds {
		th := th
		jobs[i] = runner.Job[workload.LockResult]{
			Label: fmt.Sprintf("ablation/cu-threshold/thr=%d", th),
			Run: func() workload.LockResult {
				p := workload.DefaultLockParams(proto.CU, o.TrafficProcs)
				p.Iterations = o.LockIterations
				p.Tune = func(c *machine.Config) { c.CUThreshold = th }
				return workload.LockLoop(p, workload.MCS)
			},
		}
	}
	for i, res := range runner.Map(o.Runner, jobs) {
		th := thresholds[i]
		a.Latency[th] = res.AvgLatency
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
// pattern it targets: fork/join-style data that is private to one
// processor during computation and read by others only at the end.
// With retention the first write-through converts the block to locally
// writable and every later store is free; without it (and under the
// write-through protocol generally) every store travels to the home.
// Once any other processor caches a block, retention is dead for that
// block under PU — copies are never dropped — which is why truly
// shared data sees no benefit.
func AblatePURetention(o Options) *RetentionAblation {
	const (
		phases        = 40
		rewritesPhase = 16 // one store per word of the private block
	)
	procs := o.TrafficProcs
	run := func(disable bool) machine.Result {
		cfg := machine.DefaultConfig(proto.PU, procs)
		cfg.DisableRetention = disable
		m := machine.Acquire(cfg)
		defer m.Release()
		own := make([]machine.Addr, procs)
		for i := range own {
			own[i] = m.Alloc(fmt.Sprintf("priv%d", i), 64, i)
		}
		return m.RunProgram(&privateRewriteProgram{
			own: own, b: m.NewMagicBarrier(), phases: phases, rewrites: rewritesPhase,
		})
	}
	pair := runner.Map(o.Runner, []runner.Job[machine.Result]{
		{Label: "ablation/retention/on", Run: func() machine.Result { return run(false) }},
		{Label: "ablation/retention/off", Run: func() machine.Result { return run(true) }},
	})
	on, off := pair[0], pair[1]
	return &RetentionAblation{
		Workload:        fmt.Sprintf("private-phase rewrites, PU, P=%d", procs),
		LatencyOn:       float64(on.Cycles) / phases,
		LatencyOff:      float64(off.Cycles) / phases,
		UpdatesOn:       on.Updates.Total(),
		UpdatesOff:      off.Updates.Total(),
		WriteThroughOn:  on.Counters.WriteThrough,
		WriteThroughOff: off.Counters.WriteThrough,
	}
}

// privateRewriteProgram is AblatePURetention's body: every phase each
// processor rewrites all words of its own block, then all cross a magic
// barrier; at the join a neighbour consumes the privately built result.
// Registers: I0 phase, I1 word.
type privateRewriteProgram struct {
	own              []machine.Addr
	b                *machine.MagicBarrier
	phases, rewrites int
}

func (g *privateRewriteProgram) Step(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	switch f.PC {
	case 0:
		id := p.ID()
		if f.I0 >= g.phases {
			f.PC = 1
			return p.FRead(g.own[(id+1)%len(g.own)])
		}
		if w := f.I1; w < g.rewrites {
			f.I1++
			return p.FWrite(g.own[id]+machine.Addr(4*w), uint32(f.I0*100+w))
		}
		f.I0++
		f.I1 = 0
		return g.b.FWait(p)
	case 1:
		return machine.OpDone
	}
	panic("experiments: privateRewriteProgram bad pc")
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

// AblateSpinModel runs the ticket lock workload under both spin models.
func AblateSpinModel(o Options, pr proto.Protocol) *SpinModelAblation {
	run := func(poll uint64) workload.LockResult {
		p := workload.DefaultLockParams(pr, o.TrafficProcs)
		p.Iterations = o.LockIterations
		p.Tune = func(c *machine.Config) { c.SpinPollCycles = poll }
		return workload.LockLoop(p, workload.Ticket)
	}
	pair := runner.Map(o.Runner, []runner.Job[workload.LockResult]{
		{Label: fmt.Sprintf("ablation/spin/%v/compressed", pr), Run: func() workload.LockResult { return run(0) }},
		{Label: fmt.Sprintf("ablation/spin/%v/polling", pr), Run: func() workload.LockResult { return run(2) }},
	})
	w, pl := pair[0], pair[1]
	return &SpinModelAblation{
		Workload:      fmt.Sprintf("ticket lock, %v, P=%d", pr, o.TrafficProcs),
		LatencyWatch:  w.AvgLatency,
		LatencyPoll:   pl.AvgLatency,
		MissesWatch:   w.Misses.TotalMisses(),
		MissesPoll:    pl.Misses.TotalMisses(),
		UpdatesWatch:  w.Updates.Total(),
		UpdatesPoll:   pl.Updates.Total(),
		MessagesWatch: w.Net.Messages,
		MessagesPoll:  pl.Net.Messages,
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
