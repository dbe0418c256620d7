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
	FamilyRetention = "retention" // workload.PrivateRewriteLoop; Iterations = phases
)

// maxSpinPoll bounds Point.SpinPoll: far above the 2 cycles the spin
// ablation polls at, and far below an interval whose wake-up time could
// overflow the clock.
const maxSpinPoll = 1000

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
	// The run-shaping fields change the simulated machine; each is
	// omitted at its default, so a point without them keeps its key.
	CUThreshold uint8    `json:"cu_threshold,omitempty"` // CU's competitive-update threshold; 0 = the paper's 4
	SpinPoll    sim.Time `json:"spin_poll,omitempty"`    // explicit polling every SpinPoll cycles; 0 = compressed spins
	NoRetention bool     `json:"no_retention,omitempty"` // turn off PU's private-block retention
	// NodeLoad asks for each node's NI flits and memory busy cycles in
	// PointResult.Nodes. Like Breakdown it reads counters only.
	NodeLoad bool `json:"node_load,omitempty"`
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
	Nodes       []machine.NodeLoad       `json:"nodes,omitempty"`
	// WriteThroughs counts the run's write-through transactions; only
	// the retention family reports it.
	WriteThroughs uint64 `json:"write_throughs,omitempty"`
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
		Nodes:       res.Nodes,
	}
}

// params applies the point's fields over the family's default
// parameters: its run-shaping fields first, then the caller's tuning
// hook.
func (pt Point) params(p workload.Params, tune func(*machine.Config)) workload.Params {
	p.Iterations = pt.Iterations
	p.MetricsInterval = pt.MetricsInterval
	p.Breakdown = pt.Breakdown
	p.NodeLoad = pt.NodeLoad
	p.Tune = func(c *machine.Config) {
		if pt.CUThreshold != 0 {
			c.CUThreshold = pt.CUThreshold
		}
		c.SpinPollCycles = pt.SpinPoll
		c.DisableRetention = pt.NoRetention
		if tune != nil {
			tune(c)
		}
	}
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
// processors, too few iterations average over nothing, a NaN latency
// that JSON cannot carry, and a machine setting its protocol never
// reads would run under a second key.
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
	case FamilyRetention:
		if pt.Kind != 0 || pt.WarmFork {
			return fmt.Errorf("a retention point has kind 0 and no warm fork")
		}
	case FamilyApp:
		if pt.Kind < 0 || pt.Kind >= len(appKernels) {
			return fmt.Errorf("app kind %d out of range", pt.Kind)
		}
		variants = appKernels[pt.Kind].variants
		if pt != (Point{Family: pt.Family, Kind: pt.Kind, Variant: pt.Variant, Protocol: pt.Protocol,
			Procs: pt.Procs, Iterations: pt.Iterations, Label: pt.Label}) {
			return fmt.Errorf("an app point takes no metrics, breakdown, warm fork, node load or machine setting")
		}
	default:
		return fmt.Errorf("unknown point family %q", pt.Family)
	}
	switch {
	case pt.Family != FamilyApp && pt.Family != FamilyRetention && pt.Construct() == "?":
		return fmt.Errorf("%s kind %d out of range", pt.Family, pt.Kind)
	case pt.Variant < 0 || pt.Variant >= variants:
		return fmt.Errorf("%s variant %d out of range", pt.Family, pt.Variant)
	case pt.Procs < 1 || pt.Procs > 64:
		return fmt.Errorf("procs %d out of range 1..64", pt.Procs)
	case pt.Protocol < proto.WI || pt.Protocol > proto.CU:
		return fmt.Errorf("protocol %d out of range", pt.Protocol)
	case pt.Iterations < minIters: // procs are in range by now
		return fmt.Errorf("%s iterations %d, want at least %d", pt.Family, pt.Iterations, minIters)
	case pt.CUThreshold != 0 && pt.Protocol != proto.CU:
		return fmt.Errorf("a CU threshold on a %v point", pt.Protocol)
	case pt.NoRetention && pt.Protocol != proto.PU:
		return fmt.Errorf("retention off on a %v point", pt.Protocol)
	case pt.SpinPoll > maxSpinPoll:
		return fmt.Errorf("spin poll %d above %d cycles", pt.SpinPoll, maxSpinPoll)
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
// warm-forked. tune, if set, adjusts the machine configuration after
// the point's own run-shaping fields: how a caller attaches instruments
// a Point does not describe (a timeline, an operation trace) to the
// very simulation the point names.
func (pt Point) Simulate(tune func(*machine.Config)) (PointResult, error) {
	if err := pt.validate(); err != nil {
		return PointResult{}, err
	}
	switch pt.Family {
	case FamilyLock:
		p := pt.params(workload.DefaultLockParams(pt.Protocol, pt.Procs), tune)
		loop := workload.RunLockLoop
		if pt.WarmFork {
			loop = workload.TwoPhaseLockLoop
		}
		r := loop(p, workload.LockKind(pt.Kind), workload.LockVariant(pt.Variant))
		return pointResult(r.Result, r.AvgLatency, r.Acquires), nil
	case FamilyBarrier:
		p := pt.params(workload.DefaultBarrierParams(pt.Protocol, pt.Procs), tune)
		loop := workload.BarrierLoop
		if pt.WarmFork {
			loop = workload.TwoPhaseBarrierLoop
		}
		r := loop(p, workload.BarrierKind(pt.Kind))
		return pointResult(r.Result, r.AvgLatency, r.Episodes), nil
	case FamilyReduction:
		p := pt.params(workload.DefaultReductionParams(pt.Protocol, pt.Procs), tune)
		loop := workload.RunReductionLoop
		if pt.WarmFork {
			loop = workload.TwoPhaseReductionLoop
		}
		r := loop(p, workload.ReductionKind(pt.Kind), pt.Variant == 1)
		return pointResult(r.Result, r.AvgLatency, r.Reductions), nil
	case FamilyRetention:
		r := workload.PrivateRewriteLoop(pt.params(workload.Params{Procs: pt.Procs, Protocol: pt.Protocol}, tune))
		res := pointResult(r.Result, r.AvgLatency, r.Episodes)
		res.WriteThroughs = r.Counters.WriteThrough
		return res, nil
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

// local is o without collectors, memos or dispatcher: the ablations and
// the contention study simulate their points on the local pool only.
func (o Options) local() Options {
	o.Metrics, o.Breakdown, o.Memo, o.Forks, o.Dispatch = nil, nil, nil, nil, nil
	return o
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
