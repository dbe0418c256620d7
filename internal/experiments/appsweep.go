package experiments

import (
	"fmt"

	"coherencesim/internal/apps"
	"coherencesim/internal/proto"
	"coherencesim/internal/stats"
	"coherencesim/internal/workload"
)

// AppComparison answers the paper's practical question at application
// level: for each kernel (lock-bound work queue, barrier-bound Jacobi,
// reduction-bound n-body step loop), which construct implementation is
// fastest under each protocol? Cells are cycles per application
// operation (task / sweep / step); the last column names the winner.
type AppComparison struct {
	App    string
	Procs  int
	Combos []string
	Cycles map[string]float64
	Winner map[proto.Protocol]string
}

// Table renders one application's comparison.
func (a *AppComparison) Table() *stats.Table {
	cols := []string{"cycles/op"}
	t := stats.NewTable(fmt.Sprintf("Application %s at P=%d (winner per protocol: WI=%s PU=%s CU=%s)",
		a.App, a.Procs, a.Winner[proto.WI], a.Winner[proto.PU], a.Winner[proto.CU]),
		cols, a.Combos)
	for i, c := range a.Combos {
		t.Set(i, 0, "%.1f", a.Cycles[c])
	}
	return t
}

// record stores one measurement and updates the per-protocol winner.
func (a *AppComparison) record(name string, pr proto.Protocol, alg string, cyclesPerOp float64) {
	a.Combos = append(a.Combos, name)
	a.Cycles[name] = cyclesPerOp
	if w, ok := a.Winner[pr]; !ok || cyclesPerOp < a.Cycles[w+"-"+pr.Short()] {
		a.Winner[pr] = alg
	}
}

func newAppComparison(app string, procs int) *AppComparison {
	return &AppComparison{
		App:    app,
		Procs:  procs,
		Cycles: make(map[string]float64),
		Winner: make(map[proto.Protocol]string),
	}
}

// The application kernels, a FamilyApp point's Kind. The point's
// Variant is the kernel's construct kind and Iterations its task, sweep
// or step count.
const (
	appWorkQueue = iota
	appJacobi
	appNBody
)

// appKernels names each kernel and says how many construct kinds it
// can build.
var appKernels = []struct {
	name     string
	variants int
}{
	appWorkQueue: {"workqueue", len(extLockKinds)},
	appJacobi:    {"jacobi", len(barrierKinds)},
	appNBody:     {"nbodymax", len(reductionKinds)},
}

// runApp simulates a FamilyApp point: the kernel runs to completion and
// checks its own answer, and Latency is cycles per task, sweep or step.
func (pt Point) runApp() (PointResult, error) {
	var r apps.Result
	switch pt.Kind {
	case appWorkQueue:
		r = apps.WorkQueue(apps.WorkQueueParams{
			Protocol: pt.Protocol, Procs: pt.Procs, Lock: workload.LockKind(pt.Variant),
			Tasks: pt.Iterations, TaskWork: 50,
		})
	case appJacobi:
		r = apps.Jacobi(apps.JacobiParams{
			Protocol: pt.Protocol, Procs: pt.Procs, Barrier: workload.BarrierKind(pt.Variant),
			Sweeps: pt.Iterations, CellsPerProc: 16,
		})
	case appNBody:
		r = apps.NBodyMax(apps.NBodyParams{
			Protocol: pt.Protocol, Procs: pt.Procs, Reduction: workload.ReductionKind(pt.Variant),
			Steps: pt.Iterations, BodyWork: 100,
		})
	}
	if !r.Correct {
		return PointResult{}, fmt.Errorf("%s computed a wrong answer", r.App)
	}
	return pointResult(r.Result, r.CyclesPerOp, r.Work), nil
}

// appSweep runs one point per (construct, protocol) of an application
// kernel at the traffic machine size and records them in submission
// order, so the incremental winner computation matches the serial path.
func appSweep[K interface {
	~int
	fmt.Stringer
}](o Options, kernel int, kinds []K, iterations int) *AppComparison {
	app := appKernels[kernel].name
	a := newAppComparison(app, o.TrafficProcs)
	var pts []Point
	for _, kind := range kinds {
		for _, pr := range protocols {
			pts = append(pts, Point{
				Family: FamilyApp, Kind: kernel, Variant: int(kind),
				Protocol: pr, Procs: o.TrafficProcs, Iterations: iterations,
				Label: fmt.Sprintf("apps/%s/%v-%s", app, kind, pr.Short()),
			})
		}
	}
	for i, r := range o.runPoints(pts) {
		kind, pr := kinds[i/len(protocols)], protocols[i%len(protocols)]
		a.record(comboName(kind, pr), pr, kind.String(), r.Latency)
	}
	return a
}

// CompareWorkQueue sweeps the lock choices for the work-queue kernel.
func CompareWorkQueue(o Options) *AppComparison {
	return appSweep(o, appWorkQueue, lockKinds, max(o.LockIterations/10, 32))
}

// CompareJacobi sweeps the barrier choices for the Jacobi kernel.
func CompareJacobi(o Options) *AppComparison {
	return appSweep(o, appJacobi, barrierKinds, max(o.BarrierEpisodes/10, 20))
}

// CompareNBody sweeps the reduction strategies for the n-body kernel.
func CompareNBody(o Options) *AppComparison {
	return appSweep(o, appNBody, reductionKinds, max(o.ReductionEpisodes/10, 20))
}
