package service

import (
	"context"
	"fmt"
	"strings"

	"coherencesim/internal/experiments"
	"coherencesim/internal/machine"
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
// same runs — happens once. A warm_fork spec selects only the two-phase
// run; it is memoized like any other.
func BatchExecutor() ExecFunc {
	return memoExecutor(experiments.NewWarmForkCache())
}

// memoExecutor is the executor on the caller's memo (a Service's).
func memoExecutor(memo *experiments.WarmForkCache) ExecFunc {
	return func(ctx context.Context, spec JobSpec, simWorkers int, progress func(runner.Snapshot)) (*JobResult, error) {
		return executeSpec(ctx, spec, simWorkers, progress, nil, memo)
	}
}

// executeSpec is the executor with an optional point dispatcher: when
// non-nil, decomposable sweeps hand their points to it (the fleet path)
// instead of the local pool and memo. Everything else — rendering,
// assembly order, collectors — is shared and cannot drift. memo is never
// nil: a warm_fork spec selects the two-phase run with it.
func executeSpec(ctx context.Context, spec JobSpec, simWorkers int, progress func(runner.Snapshot), dispatch experiments.PointDispatcher, memo *experiments.WarmForkCache) (*JobResult, error) {
	if spec.Kind == "run" {
		res, _, err := ExecuteRun(ctx, spec, nil)
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
	if spec.WarmFork {
		o.Forks = memo
	}

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
// family accepts for its algorithms (naming none is the default's), how
// its summary lines word the count and the latency, and the workload
// that simulates it.
type runKind struct {
	algos            map[string]string // accepted spelling -> canonical code
	counted, latency string
	params           func(proto.Protocol, int) workload.Params
	// loop simulates the canonical algo: its paper label, the machine's
	// result, how many operations were counted, their average latency.
	loop func(p workload.Params, algo string) (string, machine.Result, int, float64)
}

var runKinds = map[string]runKind{
	"lock": {
		algos:   map[string]string{"": "tk", "tk": "tk", "ticket": "tk", "mcs": "mcs", "uc": "ucmcs", "ucmcs": "ucmcs"},
		counted: "acquires", latency: "acquire-release",
		params: workload.DefaultLockParams,
		loop: func(p workload.Params, algo string) (string, machine.Result, int, float64) {
			k := map[string]workload.LockKind{"tk": workload.Ticket, "mcs": workload.MCS, "ucmcs": workload.UpdateConsciousMCS}[algo]
			r := workload.LockLoop(p, k)
			return k.String(), r.Result, r.Acquires, r.AvgLatency
		},
	},
	"barrier": {
		algos:   map[string]string{"": "db", "cb": "cb", "central": "cb", "db": "db", "dissemination": "db", "tb": "tb", "tree": "tb"},
		counted: "episodes", latency: "episode",
		params: workload.DefaultBarrierParams,
		loop: func(p workload.Params, algo string) (string, machine.Result, int, float64) {
			k := map[string]workload.BarrierKind{"cb": workload.Central, "db": workload.Dissemination, "tb": workload.Tree}[algo]
			r := workload.BarrierLoop(p, k)
			return k.String(), r.Result, r.Episodes, r.AvgLatency
		},
	},
	"reduction": {
		algos:   map[string]string{"": "sr", "sr": "sr", "sequential": "sr", "pr": "pr", "parallel": "pr"},
		counted: "reductions", latency: "reduction",
		params: workload.DefaultReductionParams,
		loop: func(p workload.Params, algo string) (string, machine.Result, int, float64) {
			k := map[string]workload.ReductionKind{"sr": workload.Sequential, "pr": workload.Parallel}[algo]
			r := workload.ReductionLoop(p, k)
			return k.String(), r.Result, r.Reductions, r.AvgLatency
		},
	},
}

// protocols maps every accepted protocol spelling (upper-cased; naming
// none is WI) to the protocol, whose String is the canonical spelling.
var protocols = map[string]proto.Protocol{
	"": proto.WI, "WI": proto.WI, "I": proto.WI,
	"PU": proto.PU, "U": proto.PU,
	"CU": proto.CU, "C": proto.CU,
}

// runLabel names a kind=run simulation in the metrics and breakdown
// reports: run/<run>/<algo>-<protocol>/P=<n>, canonical spellings.
func runLabel(spec JobSpec) string {
	return fmt.Sprintf("run/%s/%s-%s/P=%d", spec.Run, spec.Algo, strings.ToLower(spec.Protocol), spec.Procs)
}

// ExecuteRun is the executor for a canonical kind=run spec — one (construct,
// protocol, size) simulation — that also returns the machine's result.
// tune (nil for the daemon) adjusts the machine configuration first: how
// coherencesim attaches its run-only instruments to the shared path.
func ExecuteRun(ctx context.Context, spec JobSpec, tune func(*machine.Config)) (*JobResult, machine.Result, error) {
	kind, pr := runKinds[spec.Run], protocols[spec.Protocol]
	if kind.algos[spec.Algo] != spec.Algo || spec.Algo == "" || spec.Protocol != pr.String() {
		return nil, machine.Result{}, fmt.Errorf("run spec %+v is not canonical", spec)
	}
	if err := ctx.Err(); err != nil {
		return nil, machine.Result{}, err
	}
	p := kind.params(pr, spec.Procs)
	if spec.Iterations > 0 {
		p.Iterations = spec.Iterations
	}
	p.MetricsInterval = sim.Time(spec.MetricsInterval)
	p.Breakdown = spec.Breakdown
	p.Tune = tune
	name, r, n, avg := kind.loop(p, spec.Algo)
	if err := ctx.Err(); err != nil {
		return nil, machine.Result{}, err
	}

	label := runLabel(spec)
	coll := metrics.NewCollector(p.MetricsInterval)
	coll.Add(label, r.Metrics)
	res := &JobResult{Metrics: coll.Report()}
	res.Output = fmt.Sprintf("%s %s, %v, P=%d: %d %s\n  avg %s latency: %.1f cycles\n"+
		"  miss/upgrade transactions: %s   update messages: %s   network messages: %s\n",
		name, spec.Run, pr, spec.Procs, n, kind.counted, kind.latency, avg,
		stats.FormatCount(r.Misses.Total()), stats.FormatCount(r.Updates.Total()), stats.FormatCount(r.Net.Messages))
	if spec.Breakdown {
		bcoll := trace.NewBreakdownCollector()
		bcoll.Add(label, r.Breakdown)
		res.Breakdown = bcoll.Report()
	}
	return res, r, nil
}
