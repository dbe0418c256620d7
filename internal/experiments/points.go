package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"coherencesim/internal/classify"
	"coherencesim/internal/machine"
	"coherencesim/internal/metrics"
	"coherencesim/internal/proto"
	"coherencesim/internal/runner"
	"coherencesim/internal/sim"
	"coherencesim/internal/trace"
	"coherencesim/internal/workload"
)

// Point families: the serializable construct selector namespaces.
const (
	FamilyLock      = "lock"      // Kind = workload.LockKind, Variant = workload.LockVariant
	FamilyBarrier   = "barrier"   // Kind = workload.BarrierKind
	FamilyReduction = "reduction" // Kind = workload.ReductionKind, Variant 1 = imbalanced
	FamilyApp       = "app"       // Kind = application kernel, Variant = its construct's kind
)

// Point is one independent sweep measurement in serializable form: the
// complete input of a single simulation, with no closures. A sweep
// decomposes into Points, each Point runs anywhere — this process's
// pool, or a fleet worker across the network — and RunPointForked rebuilds
// exactly the simulation the in-process sweep closure would have run.
// The simulator is deterministic, so a Point's content hash (Key)
// fully addresses its result.
type Point struct {
	Family          string         `json:"family"`
	Kind            int            `json:"kind"`
	Variant         int            `json:"variant,omitempty"`
	Protocol        proto.Protocol `json:"protocol"`
	Procs           int            `json:"procs"`
	Iterations      int            `json:"iterations"`
	MetricsInterval sim.Time       `json:"metrics_interval,omitempty"`
	Breakdown       bool           `json:"breakdown,omitempty"`
	WarmFork        bool           `json:"warm_fork,omitempty"`
	// Label is the figure's diagnostic job label. It does not shape the
	// simulation and is excluded from Key.
	Label string `json:"label,omitempty"`
}

// Unlabeled returns pt with Label cleared: everything that shapes its
// simulation, the key of a point memo.
func (pt Point) Unlabeled() Point {
	pt.Label = ""
	return pt
}

// Key returns the point's content address: the hex SHA-256 of its
// canonical JSON (Label cleared) in a versioned namespace. Two points
// with equal keys produce byte-identical results.
func (pt Point) Key() string {
	b, err := json.Marshal(pt.Unlabeled())
	if err != nil { // a Point is pure data; Marshal cannot fail
		panic(err)
	}
	sum := sha256.Sum256(append([]byte("point:v2:"), b...))
	return hex.EncodeToString(sum[:])
}

// PointResult is the serializable outcome of one Point: the figure
// metric, the counts a kind=run summary prints, and everything the
// sweep assembly loops feed to collectors. All fields are pure data and survive a JSON round trip byte-for-byte
// on re-marshal, which is what keeps fleet-assembled documents
// byte-identical to single-process ones.
type PointResult struct {
	Latency float64 `json:"latency"`
	// Ops is how many operations Latency averages over (acquires,
	// episodes, reductions, an app kernel's tasks, sweeps or steps).
	Ops         int                      `json:"ops,omitempty"`
	Misses      classify.MissCounts      `json:"misses"`
	Updates     classify.UpdateCounts    `json:"updates"`
	NetMessages uint64                   `json:"net_messages,omitempty"`
	SimCycles   uint64                   `json:"sim_cycles"`
	SimEvents   uint64                   `json:"sim_events,omitempty"`
	Metrics     *metrics.Snapshot        `json:"metrics,omitempty"`
	Breakdown   *trace.BreakdownSnapshot `json:"breakdown,omitempty"`
}

// SimulatedCycles implements runner.CycleReporter so locally executed
// points keep feeding the pool's throughput accounting.
func (r PointResult) SimulatedCycles() uint64 { return r.SimCycles }

// PointDispatcher executes a batch of points and returns their results
// indexed exactly as submitted (the same contract as runner.Map). The
// fleet coordinator installs one to fan points across workers.
type PointDispatcher func(pts []Point) []PointResult

// pointResult projects a machine result + figure metric over ops
// operations into the serializable form.
func pointResult(res machine.Result, latency float64, ops int) PointResult {
	return PointResult{
		Latency:     latency,
		Ops:         ops,
		Misses:      res.Misses,
		Updates:     res.Updates,
		NetMessages: res.Net.Messages,
		SimCycles:   res.SimulatedCycles(),
		SimEvents:   res.SimEvents,
		Metrics:     res.Metrics,
		Breakdown:   res.Breakdown,
	}
}

// params applies the point's run-shaping fields and the caller's tuning
// hook over the family's default parameters.
func (pt Point) params(p workload.Params, tune func(*machine.Config)) workload.Params {
	p.Iterations = pt.Iterations
	p.MetricsInterval = pt.MetricsInterval
	p.Breakdown = pt.Breakdown
	p.Tune = tune
	return p
}

// Construct returns the paper label of the construct a lock, barrier or
// reduction point exercises (tk, MCS, db, sr, ...), or "?" when its
// family has no such kind.
func (pt Point) Construct() string {
	switch pt.Family {
	case FamilyLock:
		return workload.LockKind(pt.Kind).String()
	case FamilyBarrier:
		return workload.BarrierKind(pt.Kind).String()
	case FamilyReduction:
		return workload.ReductionKind(pt.Kind).String()
	}
	return "?"
}

// validate rejects a point no sweep builds. A fleet worker decodes its
// points from the network, so everything that selects or sizes the
// simulation is checked before a workload sees it: an unknown kind
// panics in the construct builders, a machine panics outside 1..64
// processors, and too few iterations average over nothing, a NaN latency
// that JSON cannot carry.
func (pt Point) validate() error {
	variants, minIters := 1, 1
	switch pt.Family {
	case FamilyLock:
		// Plain, random-pause, work-ratio; each processor acquires
		// Iterations/Procs times.
		variants, minIters = 3, pt.Procs
	case FamilyBarrier:
	case FamilyReduction:
		variants = 2 // balanced, imbalanced
	case FamilyApp:
		if pt.Kind < 0 || pt.Kind >= len(appKernels) {
			return fmt.Errorf("app kind %d out of range", pt.Kind)
		}
		variants = appKernels[pt.Kind].variants
		if pt.MetricsInterval != 0 || pt.Breakdown || pt.WarmFork {
			return fmt.Errorf("an app point takes no metrics, breakdown or warm fork")
		}
	default:
		return fmt.Errorf("unknown point family %q", pt.Family)
	}
	switch {
	case pt.Family != FamilyApp && pt.Construct() == "?":
		return fmt.Errorf("%s kind %d out of range", pt.Family, pt.Kind)
	case pt.Variant < 0 || pt.Variant >= variants:
		return fmt.Errorf("%s variant %d out of range", pt.Family, pt.Variant)
	case pt.Procs < 1 || pt.Procs > 64:
		return fmt.Errorf("procs %d out of range 1..64", pt.Procs)
	case pt.Protocol < proto.WI || pt.Protocol > proto.CU:
		return fmt.Errorf("protocol %d out of range", pt.Protocol)
	case pt.Iterations < minIters: // procs are in range by now
		return fmt.Errorf("%s iterations %d, want at least %d", pt.Family, pt.Iterations, minIters)
	}
	return nil
}

// RunPointForked executes one point through the caller's result memo —
// the local sweep's and the fleet worker's entry. The memo is keyed by
// every simulation-shaping field, so one that outlives a batch turns
// each repeated point of a job stream into a lookup; nil simulates
// unconditionally. The memo saves the simulation, never changes its
// output; one phase or two is the point's own WarmFork field.
func RunPointForked(ctx context.Context, pt Point, forks *PointMemo) (PointResult, error) {
	run := func() (PointResult, error) { return pt.Simulate(nil) }
	if forks == nil {
		return run()
	}
	return forks.Do(ctx, pt.Unlabeled(), run)
}

// Simulate runs pt's simulation once, outside any memo: the family's
// single-phase loop, or its two-phase twin when the point is
// warm-forked. tune, if set, adjusts the machine configuration first:
// how a caller attaches instruments a Point does not describe (a
// timeline, an operation trace) to the very simulation the point names.
func (pt Point) Simulate(tune func(*machine.Config)) (PointResult, error) {
	if err := pt.validate(); err != nil {
		return PointResult{}, err
	}
	switch pt.Family {
	case FamilyLock:
		p := pt.params(workload.DefaultLockParams(pt.Protocol, pt.Procs), tune)
		kind, v := workload.LockKind(pt.Kind), workload.LockVariant(pt.Variant)
		var r workload.LockResult
		switch {
		case pt.WarmFork:
			r = workload.TwoPhaseLockLoop(p, kind, v)
		case v == workload.RandomPause:
			r = workload.LockLoopRandomPause(p, kind)
		case v == workload.WorkRatio:
			r = workload.LockLoopWorkRatio(p, kind)
		default:
			r = workload.LockLoop(p, kind)
		}
		return pointResult(r.Result, r.AvgLatency, r.Acquires), nil
	case FamilyBarrier:
		p := pt.params(workload.DefaultBarrierParams(pt.Protocol, pt.Procs), tune)
		kind := workload.BarrierKind(pt.Kind)
		loop := workload.BarrierLoop
		if pt.WarmFork {
			loop = workload.TwoPhaseBarrierLoop
		}
		r := loop(p, kind)
		return pointResult(r.Result, r.AvgLatency, r.Episodes), nil
	case FamilyReduction:
		p := pt.params(workload.DefaultReductionParams(pt.Protocol, pt.Procs), tune)
		kind, imbalanced := workload.ReductionKind(pt.Kind), pt.Variant == 1
		var r workload.ReductionResult
		switch {
		case pt.WarmFork:
			r = workload.TwoPhaseReductionLoop(p, kind, imbalanced)
		case imbalanced:
			r = workload.ReductionLoopImbalanced(p, kind)
		default:
			r = workload.ReductionLoop(p, kind)
		}
		return pointResult(r.Result, r.AvgLatency, r.Reductions), nil
	default: // FamilyApp, the one family left that validate admits
		return pt.runApp()
	}
}

// runPoints executes a decomposed sweep: through the installed
// dispatcher when one is set (the fleet path), otherwise on the local
// pool through the caller's memo (Forks if set, else Memo). Either way
// results come back in submission order, so assembly is identical.
func (o Options) runPoints(pts []Point) []PointResult {
	if o.Dispatch != nil {
		return o.Dispatch(pts)
	}
	memo := o.Forks
	if memo == nil {
		memo = o.Memo
	}
	jobs := make([]runner.Job[PointResult], len(pts))
	for i := range pts {
		pt := pts[i]
		jobs[i] = runner.Job[PointResult]{
			Label: pt.Label,
			Run: func() PointResult {
				// Family and kind are constructed by this package, so a
				// failure here is a bug in the sweep that built pt.
				res, err := RunPointForked(o.Runner.Context(), pt, memo)
				if err != nil {
					panic(fmt.Sprintf("experiments: point %q: %v", pt.Label, err))
				}
				return res
			},
		}
	}
	return runner.Map(o.Runner, jobs)
}

// Per-family point constructors. Sweeps build their points through
// these, and RunPointForked executes from the same Point fields, so the
// decomposed path cannot drift from the in-process one.

func (o Options) lockPoint(kind workload.LockKind, v workload.LockVariant, pr proto.Protocol, procs int) Point {
	return Point{
		Family: FamilyLock, Kind: int(kind), Variant: int(v),
		Protocol: pr, Procs: procs, Iterations: o.LockIterations,
		MetricsInterval: o.Metrics.Interval(), Breakdown: o.Breakdown.Enabled(),
		WarmFork: o.Forks != nil,
	}
}

func (o Options) barrierPoint(kind workload.BarrierKind, pr proto.Protocol, procs int) Point {
	return Point{
		Family: FamilyBarrier, Kind: int(kind),
		Protocol: pr, Procs: procs, Iterations: o.BarrierEpisodes,
		MetricsInterval: o.Metrics.Interval(), Breakdown: o.Breakdown.Enabled(),
		WarmFork: o.Forks != nil,
	}
}

func (o Options) reductionPoint(kind workload.ReductionKind, imbalanced bool, pr proto.Protocol, procs int) Point {
	variant := 0
	if imbalanced {
		variant = 1
	}
	return Point{
		Family: FamilyReduction, Kind: int(kind), Variant: variant,
		Protocol: pr, Procs: procs, Iterations: o.ReductionEpisodes,
		MetricsInterval: o.Metrics.Interval(), Breakdown: o.Breakdown.Enabled(),
		WarmFork: o.Forks != nil,
	}
}
