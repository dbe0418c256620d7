package service

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"coherencesim/internal/experiments"
	"coherencesim/internal/metrics"
	"coherencesim/internal/proto"
	"coherencesim/internal/runner"
	"coherencesim/internal/sim"
	"coherencesim/internal/stats"
	"coherencesim/internal/trace"
	"coherencesim/internal/workload"
)

// ExecFunc runs one canonical job spec to completion, honoring ctx for
// cancellation. The scheduler is written against this signature so
// tests can substitute stub executors.
type ExecFunc func(ctx context.Context, spec JobSpec, simWorkers int, progress func(runner.Snapshot)) (*JobResult, error)

// BatchExecutor returns the executor — the daemon's, the fleet
// coordinator's and coherencesim's — on a point memo of its own: it
// decodes a canonical spec into experiments.Options (or a single
// workload run), fans the sweep's simulations onto a context-bound
// runner pool, and assembles the deterministic result document.
// Cancellation is observed between simulations — a spec's individual
// simulation is never interrupted mid-event — and a cancelled job
// returns ctx.Err() with no result. The jobs run through one executor
// are a batch (the figures of coherencesim -experiment all): a
// simulation two of them have in common — figures 9 and 10 project the
// same runs — happens once.
func BatchExecutor() ExecFunc {
	return memoExecutor(experiments.NewPointMemo(experiments.PointStore(nil)))
}

// memoExecutor is the executor on the caller's memo (a Service's).
func memoExecutor(memo *experiments.PointMemo) ExecFunc {
	return func(ctx context.Context, spec JobSpec, simWorkers int, progress func(runner.Snapshot)) (*JobResult, error) {
		return executeSpec(ctx, spec, simWorkers, progress, nil, memo)
	}
}

// executeSpec is the executor with a point dispatcher or a memo: when
// dispatch is non-nil, decomposable sweeps hand their points to it (the
// fleet path) and memo is never read; otherwise they run on the local
// pool through memo. Everything else — rendering, assembly order,
// collectors — is shared and cannot drift.
func executeSpec(ctx context.Context, spec JobSpec, simWorkers int, progress func(runner.Snapshot), dispatch experiments.PointDispatcher, memo *experiments.PointMemo) (*JobResult, error) {
	if spec.Kind == "run" {
		res, _, err := ExecuteRun(ctx, spec, func(pt experiments.Point) (experiments.PointResult, error) {
			if dispatch != nil {
				return dispatch([]experiments.Point{pt})[0], nil
			}
			return experiments.RunPointForked(ctx, pt, memo)
		})
		return res, err
	}
	entry, ok := experiments.Lookup(spec.Experiment)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q", spec.Experiment)
	}
	o := experiments.Defaults()
	if spec.Scale == "quick" {
		o = experiments.Quick()
	}
	o.Runner = runner.NewWithContext(ctx, simWorkers)
	o.Runner.SetProgress(progress)
	o.Dispatch = dispatch
	o.Metrics = metrics.NewCollector(sim.Time(spec.MetricsInterval))
	if spec.Breakdown {
		o.Breakdown = trace.NewBreakdownCollector()
	}
	o.Memo = memo

	res := &JobResult{}
	if spec.Format == "csv" {
		res.Output = entry.CSV(o)
	} else {
		var b strings.Builder
		for _, tbl := range entry.Tables(o) {
			fmt.Fprintln(&b, tbl)
		}
		res.Output = b.String()
	}
	// A cancelled sweep assembled zero values; never serve it as a result.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Metrics = o.Metrics.Report()
	if o.Breakdown != nil {
		res.Breakdown = o.Breakdown.Report()
	}
	return res, nil
}

// runKind is one row of the kind=run surface: the spellings a construct
// family accepts for its algorithms (naming none is the default's), their
// canonical codes in the order of the family's point kinds, and how its
// summary lines word the count and the latency. A run's name is its
// point family.
type runKind struct {
	algos            map[string]string // accepted spelling -> canonical code
	codes            []string          // experiments.Point.Kind -> canonical code
	counted, latency string
}

var runKinds = map[string]runKind{
	experiments.FamilyLock: {
		algos:   map[string]string{"": "tk", "tk": "tk", "ticket": "tk", "mcs": "mcs", "uc": "ucmcs", "ucmcs": "ucmcs"},
		codes:   []string{workload.Ticket: "tk", workload.MCS: "mcs", workload.UpdateConsciousMCS: "ucmcs"},
		counted: "acquires", latency: "acquire-release",
	},
	experiments.FamilyBarrier: {
		algos:   map[string]string{"": "db", "cb": "cb", "central": "cb", "db": "db", "dissemination": "db", "tb": "tb", "tree": "tb"},
		codes:   []string{workload.Central: "cb", workload.Dissemination: "db", workload.Tree: "tb"},
		counted: "episodes", latency: "episode",
	},
	experiments.FamilyReduction: {
		algos:   map[string]string{"": "sr", "sr": "sr", "sequential": "sr", "pr": "pr", "parallel": "pr"},
		codes:   []string{workload.Sequential: "sr", workload.Parallel: "pr"},
		counted: "reductions", latency: "reduction",
	},
}

// protocols maps every accepted protocol spelling (upper-cased; naming
// none is WI) to the protocol, whose String is the canonical spelling.
var protocols = map[string]proto.Protocol{
	"": proto.WI, "WI": proto.WI, "I": proto.WI,
	"PU": proto.PU, "U": proto.PU,
	"CU": proto.CU, "C": proto.CU,
}

// runPoint is the one point a canonical kind=run spec simulates; no
// iteration count is the paper's. Its label names it in the metrics and
// breakdown reports: run/<run>/<algo>-<protocol>/P=<n>, canonical
// spellings.
func runPoint(spec JobSpec) (experiments.Point, error) {
	k, pr := slices.Index(runKinds[spec.Run].codes, spec.Algo), protocols[spec.Protocol]
	if k < 0 || spec.Protocol != pr.String() {
		return experiments.Point{}, fmt.Errorf("run spec %+v is not canonical", spec)
	}
	iterations := spec.Iterations
	if iterations == 0 {
		o := experiments.Defaults()
		iterations = map[string]int{"lock": o.LockIterations, "barrier": o.BarrierEpisodes, "reduction": o.ReductionEpisodes}[spec.Run]
	}
	return experiments.Point{
		Family: spec.Run, Kind: k, Protocol: pr, Procs: spec.Procs, Iterations: iterations,
		MetricsInterval: sim.Time(spec.MetricsInterval), Breakdown: spec.Breakdown,
		Label: fmt.Sprintf("run/%s/%s-%s/P=%d", spec.Run, spec.Algo, strings.ToLower(spec.Protocol), spec.Procs),
	}, nil
}

// ExecuteRun is the executor for a canonical kind=run spec — one
// (construct, protocol, size) simulation — that also returns the
// point's result. simulate runs the spec's point: the daemon's executor
// runs it the way a sweep runs its points, coherencesim as a local
// simulation with its run-only instruments attached.
func ExecuteRun(ctx context.Context, spec JobSpec, simulate func(experiments.Point) (experiments.PointResult, error)) (*JobResult, experiments.PointResult, error) {
	pt, err := runPoint(spec)
	if err != nil {
		return nil, experiments.PointResult{}, err
	}
	r, err := simulate(pt)
	if err == nil {
		err = ctx.Err() // a cancelled run may have assembled zero values
	}
	if err != nil {
		return nil, r, err
	}

	kind := runKinds[spec.Run]
	coll := metrics.NewCollector(pt.MetricsInterval)
	coll.Add(pt.Label, r.Metrics)
	res := &JobResult{Metrics: coll.Report()}
	res.Output = fmt.Sprintf("%s %s, %s, P=%d: %d %s\n  avg %s latency: %.1f cycles\n"+
		"  miss/upgrade transactions: %s   update messages: %s   network messages: %s\n",
		pt.Construct(), spec.Run, spec.Protocol, spec.Procs, r.Ops, kind.counted, kind.latency, r.Latency,
		stats.FormatCount(r.Misses.Total()), stats.FormatCount(r.Updates.Total()), stats.FormatCount(r.NetMessages))
	if spec.Breakdown {
		bcoll := trace.NewBreakdownCollector()
		bcoll.Add(pt.Label, r.Breakdown)
		res.Breakdown = bcoll.Report()
	}
	return res, r, nil
}
