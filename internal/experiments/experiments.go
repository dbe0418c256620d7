// Package experiments regenerates every figure of the paper's evaluation
// (Section 4): the latency sweeps of figures 8 (locks), 11 (barriers),
// and 14 (reductions); the 32-processor miss-traffic breakdowns of
// figures 9, 12, and 15; the update-traffic breakdowns of figures 10,
// 13, and 16; and the textually described variant experiments
// (low-contention locks, work-ratio locks, imbalanced reductions), plus
// the ablation studies called out in DESIGN.md.
package experiments

import (
	"fmt"

	"coherencesim/internal/classify"
	"coherencesim/internal/metrics"
	"coherencesim/internal/proto"
	"coherencesim/internal/runner"
	"coherencesim/internal/stats"
	"coherencesim/internal/trace"
	"coherencesim/internal/workload"
)

// Options sets the experiment scale. Defaults reproduce the paper's
// parameters; Quick shrinks iteration counts for smoke runs and tests.
type Options struct {
	Procs             []int // machine sizes for latency sweeps
	TrafficProcs      int   // machine size for traffic breakdowns
	LockIterations    int   // total acquires (paper: 32000)
	BarrierEpisodes   int   // barrier episodes (paper: 5000)
	ReductionEpisodes int   // reductions (paper: 5000)
	// Runner, when non-nil, fans a figure's independent simulations out
	// on a worker pool. Results are always assembled in deterministic
	// submission order, so every rendered table and CSV is byte-identical
	// to the serial path's. Nil runs everything serially inline.
	Runner *runner.Pool
	// Metrics, when non-nil, attaches an observability registry (sampling
	// at Metrics.Interval()) to every simulation and collects the labeled
	// snapshots. Snapshots are fed from the submission-ordered assembly
	// loops, so the collected report is byte-identical at any worker
	// count.
	Metrics *metrics.Collector
	// Breakdown, when non-nil, attaches a coherence-transaction tracer to
	// every simulation and collects the labeled stall-attribution
	// breakdowns. Like Metrics, snapshots are fed from the
	// submission-ordered assembly loops, so the report is byte-identical
	// at any worker count.
	Breakdown *trace.BreakdownCollector
	// Memo, when non-nil, remembers every point's result, so a point that
	// comes round again — in another figure of the triplet, in a later
	// job of the memo's owner — is simulated once; output never changes.
	Memo *PointMemo
	// Forks, when non-nil, selects the two-phase run: every point runs as
	// warm-up, then the rest, on one machine — deterministic at any
	// worker count but slightly different from the default single-phase
	// figures (the phase boundary re-synchronizes processors). Forks is
	// also the memo of such a sweep and takes Memo's place. Only the
	// frozen bench/ harness sets it; no command or job spec does.
	Forks *PointMemo
	// Dispatch, when non-nil, executes a sweep's decomposed points
	// instead of the local pool — the fleet coordinator installs one to
	// fan points across registered workers. Results return in submission
	// order (runner.Map's contract), so rendered output is byte-identical
	// to the local path at any worker count. The ablations and the
	// contention study do not decompose into points; they ignore it and
	// run on the local Runner as always.
	Dispatch PointDispatcher
}

// Defaults returns the paper's experiment parameters.
func Defaults() Options {
	return Options{
		Procs:             []int{1, 2, 4, 8, 16, 32},
		TrafficProcs:      32,
		LockIterations:    32000,
		BarrierEpisodes:   5000,
		ReductionEpisodes: 5000,
	}
}

// Quick returns a reduced-scale configuration (same shapes, ~1/20 the
// events) for smoke tests and benchmarks.
func Quick() Options {
	return Options{
		Procs:             []int{1, 4, 32},
		TrafficProcs:      32,
		LockIterations:    1600,
		BarrierEpisodes:   250,
		ReductionEpisodes: 250,
	}
}

var protocols = []proto.Protocol{proto.WI, proto.PU, proto.CU}

// The construct sets every sweep and traffic breakdown iterates over.
// Sweep and traffic paths share these slices so the two cannot drift.
// extLockKinds is the full Mellor-Crummey & Scott suite: the two naive
// spin locks, then the paper's three.
var (
	lockKinds      = []workload.LockKind{workload.Ticket, workload.MCS, workload.UpdateConsciousMCS}
	extLockKinds   = []workload.LockKind{workload.TAS, workload.TTAS, workload.Ticket, workload.MCS, workload.UpdateConsciousMCS}
	barrierKinds   = []workload.BarrierKind{workload.Central, workload.Dissemination, workload.Tree}
	reductionKinds = []workload.ReductionKind{workload.Sequential, workload.Parallel}
)

func comboName(alg fmt.Stringer, pr proto.Protocol) string {
	return fmt.Sprintf("%v-%s", alg, pr.Short())
}

// latencySweep builds a latency figure by decomposing it into one Point
// per (construct, protocol, machine size) simulation, executing the
// points (local pool or installed dispatcher), and assembling the sweep
// in submission order.
func latencySweep[K fmt.Stringer](o Options, figure, metric string, kinds []K,
	pointOf func(kind K, pr proto.Protocol, procs int) Point) *LatencySweep {
	s := &LatencySweep{
		Figure:  figure,
		Metric:  metric,
		Procs:   o.Procs,
		Latency: make(map[string]map[int]float64),
	}
	type cell struct {
		name  string
		procs int
	}
	var cells []cell
	var pts []Point
	for _, kind := range kinds {
		for _, pr := range protocols {
			name := comboName(kind, pr)
			s.Combos = append(s.Combos, name)
			s.Latency[name] = make(map[int]float64)
			for _, procs := range o.Procs {
				pt := pointOf(kind, pr, procs)
				pt.Label = fmt.Sprintf("%s/%s/P=%d", figure, name, procs)
				cells = append(cells, cell{name, procs})
				pts = append(pts, pt)
			}
		}
	}
	for i, res := range o.runPoints(pts) {
		s.Latency[cells[i].name][cells[i].procs] = res.Latency
		o.Metrics.Add(pts[i].Label, res.Metrics)
		o.Breakdown.Add(pts[i].Label, res.Breakdown)
	}
	return s
}

// trafficSweep builds the per-combo miss and update counts of a traffic
// breakdown, one Point per (construct, protocol) simulation at the
// traffic machine size.
func trafficSweep[K fmt.Stringer](o Options, figure string, kinds []K,
	pointOf func(kind K, pr proto.Protocol) Point) (map[string]classify.MissCounts, map[string]classify.UpdateCounts, []string, []string) {
	misses := make(map[string]classify.MissCounts)
	updates := make(map[string]classify.UpdateCounts)
	var allCombos, updCombos, names []string
	var pts []Point
	for _, kind := range kinds {
		for _, pr := range protocols {
			name := comboName(kind, pr)
			allCombos = append(allCombos, name)
			if pr != proto.WI {
				updCombos = append(updCombos, name)
			}
			names = append(names, name)
			pt := pointOf(kind, pr)
			pt.Label = fmt.Sprintf("%s/%s/P=%d", figure, name, o.TrafficProcs)
			pts = append(pts, pt)
		}
	}
	for i, res := range o.runPoints(pts) {
		misses[names[i]] = res.Misses
		updates[names[i]] = res.Updates
		o.Metrics.Add(pts[i].Label, res.Metrics)
		o.Breakdown.Add(pts[i].Label, res.Breakdown)
	}
	return misses, updates, allCombos, updCombos
}

// LatencySweep is a latency-versus-machine-size figure.
type LatencySweep struct {
	Figure  string
	Metric  string
	Procs   []int
	Combos  []string
	Latency map[string]map[int]float64
}

// Table renders the sweep with combos as rows and sizes as columns.
func (s *LatencySweep) Table() *stats.Table {
	cols := make([]string, len(s.Procs))
	for i, p := range s.Procs {
		cols[i] = fmt.Sprintf("P=%d", p)
	}
	t := stats.NewTable(fmt.Sprintf("%s: %s", s.Figure, s.Metric), cols, s.Combos)
	for i, c := range s.Combos {
		for j, p := range s.Procs {
			t.Set(i, j, "%.1f", s.Latency[c][p])
		}
	}
	return t
}

// MissBreakdown is a categorized miss-traffic figure at one machine size.
type MissBreakdown struct {
	Figure string
	Procs  int
	Combos []string
	Counts map[string]classify.MissCounts
}

// Table renders the breakdown with combos as rows and categories as
// columns.
func (b *MissBreakdown) Table() *stats.Table {
	cols := []string{"cold", "true", "false", "evict", "drop", "excl-req", "total"}
	t := stats.NewTable(fmt.Sprintf("%s: cache misses at P=%d", b.Figure, b.Procs), cols, b.Combos)
	for i, c := range b.Combos {
		m := b.Counts[c]
		t.Set(i, 0, "%d", m[classify.MissCold])
		t.Set(i, 1, "%d", m[classify.MissTrue])
		t.Set(i, 2, "%d", m[classify.MissFalse])
		t.Set(i, 3, "%d", m[classify.MissEviction])
		t.Set(i, 4, "%d", m[classify.MissDrop])
		t.Set(i, 5, "%d", m[classify.MissUpgrade])
		t.Set(i, 6, "%d", m.Total())
	}
	return t
}

// UpdateBreakdown is a categorized update-traffic figure at one machine
// size (update-based protocols only).
type UpdateBreakdown struct {
	Figure string
	Procs  int
	Combos []string
	Counts map[string]classify.UpdateCounts
}

// Table renders the breakdown with combos as rows and categories as
// columns (the paper omits the never-observed replacement class from its
// bars; we keep the column for completeness).
func (b *UpdateBreakdown) Table() *stats.Table {
	cols := []string{"useful", "false", "prolif", "repl", "end", "drop", "total"}
	t := stats.NewTable(fmt.Sprintf("%s: update messages at P=%d", b.Figure, b.Procs), cols, b.Combos)
	for i, c := range b.Combos {
		u := b.Counts[c]
		t.Set(i, 0, "%d", u[classify.UpdTrue])
		t.Set(i, 1, "%d", u[classify.UpdFalse])
		t.Set(i, 2, "%d", u[classify.UpdProliferation])
		t.Set(i, 3, "%d", u[classify.UpdReplacement])
		t.Set(i, 4, "%d", u[classify.UpdTermination])
		t.Set(i, 5, "%d", u[classify.UpdDrop])
		t.Set(i, 6, "%d", u.Total())
	}
	return t
}

// lockSweep runs an acquire-release latency sweep over kinds under body
// variant v.
func lockSweep(o Options, figure string, kinds []workload.LockKind, v workload.LockVariant) *LatencySweep {
	return latencySweep(o, figure, "avg acquire-release latency (cycles)", kinds,
		func(kind workload.LockKind, pr proto.Protocol, procs int) Point {
			return o.lockPoint(kind, v, pr, procs)
		})
}

// Figure8 reproduces the lock latency sweep: average acquire-release
// latency (cycles) for each lock/protocol combination and machine size.
func Figure8(o Options) *LatencySweep {
	return lockSweep(o, "Figure 8", lockKinds, workload.PlainLock)
}

// ExtendedLockSweep extends figure 8 with the two other classic spin
// locks from the Mellor-Crummey & Scott suite (test-and-set with
// exponential backoff, and test-and-test-and-set), measuring all five
// algorithms under all three protocols — the comparison the paper's
// Section 2.1 references when justifying its ticket/MCS selection. Its
// tk, MCS and uc points are figure 8's.
func ExtendedLockSweep(o Options) *LatencySweep {
	return lockSweep(o, "Extended lock sweep", extLockKinds, workload.PlainLock)
}

// lockTraffic runs the traffic-size lock workload for every combo,
// returning per-combo miss and update counts.
func lockTraffic(o Options) (map[string]classify.MissCounts, map[string]classify.UpdateCounts, []string, []string) {
	return trafficSweep(o, "lock traffic", lockKinds,
		func(kind workload.LockKind, pr proto.Protocol) Point {
			return o.lockPoint(kind, workload.PlainLock, pr, o.TrafficProcs)
		})
}

// Figure9 reproduces the lock miss-traffic breakdown at 32 processors.
func Figure9(o Options) *MissBreakdown {
	m, _, combos, _ := lockTraffic(o)
	return &MissBreakdown{Figure: "Figure 9", Procs: o.TrafficProcs, Combos: combos, Counts: m}
}

// Figure10 reproduces the lock update-traffic breakdown at 32 processors.
func Figure10(o Options) *UpdateBreakdown {
	_, u, _, combos := lockTraffic(o)
	return &UpdateBreakdown{Figure: "Figure 10", Procs: o.TrafficProcs, Combos: combos, Counts: u}
}

// Figure11 reproduces the barrier latency sweep: average episode latency
// (cycles) for each barrier/protocol combination and machine size.
func Figure11(o Options) *LatencySweep {
	return latencySweep(o, "Figure 11", "avg barrier episode latency (cycles)", barrierKinds,
		func(kind workload.BarrierKind, pr proto.Protocol, procs int) Point {
			return o.barrierPoint(kind, pr, procs)
		})
}

// barrierTraffic mirrors lockTraffic for barriers.
func barrierTraffic(o Options) (map[string]classify.MissCounts, map[string]classify.UpdateCounts, []string, []string) {
	return trafficSweep(o, "barrier traffic", barrierKinds,
		func(kind workload.BarrierKind, pr proto.Protocol) Point {
			return o.barrierPoint(kind, pr, o.TrafficProcs)
		})
}

// Figure12 reproduces the barrier miss-traffic breakdown at 32 processors.
func Figure12(o Options) *MissBreakdown {
	m, _, combos, _ := barrierTraffic(o)
	return &MissBreakdown{Figure: "Figure 12", Procs: o.TrafficProcs, Combos: combos, Counts: m}
}

// Figure13 reproduces the barrier update-traffic breakdown at 32
// processors.
func Figure13(o Options) *UpdateBreakdown {
	_, u, _, combos := barrierTraffic(o)
	return &UpdateBreakdown{Figure: "Figure 13", Procs: o.TrafficProcs, Combos: combos, Counts: u}
}

func reductionSweep(o Options, figure, metric string, imbalanced bool) *LatencySweep {
	return latencySweep(o, figure, metric, reductionKinds,
		func(kind workload.ReductionKind, pr proto.Protocol, procs int) Point {
			return o.reductionPoint(kind, imbalanced, pr, procs)
		})
}

// Figure14 reproduces the reduction latency sweep: average reduction
// latency (cycles) for each strategy/protocol combination and machine
// size, with zero-traffic synchronization.
func Figure14(o Options) *LatencySweep {
	return reductionSweep(o, "Figure 14", "avg reduction latency (cycles)", false)
}

// reductionTraffic mirrors lockTraffic for reductions.
func reductionTraffic(o Options) (map[string]classify.MissCounts, map[string]classify.UpdateCounts, []string, []string) {
	return trafficSweep(o, "reduction traffic", reductionKinds,
		func(kind workload.ReductionKind, pr proto.Protocol) Point {
			return o.reductionPoint(kind, false, pr, o.TrafficProcs)
		})
}

// Figure15 reproduces the reduction miss-traffic breakdown at 32
// processors.
func Figure15(o Options) *MissBreakdown {
	m, _, combos, _ := reductionTraffic(o)
	return &MissBreakdown{Figure: "Figure 15", Procs: o.TrafficProcs, Combos: combos, Counts: m}
}

// Figure16 reproduces the reduction update-traffic breakdown at 32
// processors.
func Figure16(o Options) *UpdateBreakdown {
	_, u, _, combos := reductionTraffic(o)
	return &UpdateBreakdown{Figure: "Figure 16", Procs: o.TrafficProcs, Combos: combos, Counts: u}
}

// LockVariantRandomPause reproduces the Section 4.1 low-contention
// variant (bounded pseudo-random pause after each release).
func LockVariantRandomPause(o Options) *LatencySweep {
	return lockSweep(o, "Locks, random-pause variant", lockKinds, workload.RandomPause)
}

// LockVariantWorkRatio reproduces the Section 4.1 controlled-contention
// variant (outside/inside work ratio = P ± 10%).
func LockVariantWorkRatio(o Options) *LatencySweep {
	return lockSweep(o, "Locks, work-ratio variant", lockKinds, workload.WorkRatio)
}

// ReductionVariantImbalanced reproduces the Section 4.3 load-imbalance
// variant.
func ReductionVariantImbalanced(o Options) *LatencySweep {
	return reductionSweep(o, "Reductions, load-imbalance variant",
		"avg reduction latency (cycles)", true)
}
