package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"coherencesim/internal/experiments"
	"coherencesim/internal/fleet"
	"coherencesim/internal/runner"
)

// unitResult is what one timed unit of a workload (a rep, a round, a
// service pass) produced.
type unitResult struct {
	key       string // names the unit's entry in expected.json
	digest    string // SHA-256 of what the unit rendered or served
	wall      time.Duration
	simCycles uint64
	ops       int           // points simulated, or jobs replayed (service_mix)
	opTime    time.Duration // host time the ops took (service_mix: count x median latency)
	attempted int           // checked operations
	failed    int           // of those: errors, refusals, digest or byte mismatches
	notes     []string      // what failed, for the report

	// simEvents is summed over the point results a dispatcher saw: the
	// benchmark's own in traced passes, the fleet's always. 0 otherwise.
	simEvents uint64

	figures []time.Duration // per-figure wall times
	service *servicePass    // service_mix detail
}

// settle ends a unit, outside its timed interval: it collects the
// unit's garbage, so the next unit starts from a clean heap and the
// process's peak memory follows what units keep, not when the collector
// happened to run. A unit that holds a cache of its own settles while the
// cache is still reachable, so the collector's next target allows for it.
func settle() { runtime.GC() }

func (u *unitResult) fail(format string, args ...any) {
	u.failed++
	if len(u.notes) < 8 {
		u.notes = append(u.notes, fmt.Sprintf(format, args...))
	}
}

// benchWorkload is one benchmark workload. setup may be called several times
// (each followed by teardown) so set-up time has a median; units of the
// last setup are the timed part.
type benchWorkload interface {
	setup(seed int64, p int) error
	teardown()
	// cycle is how many units make one repeatable block of work: the
	// timed loop only stops on a cycle boundary.
	cycle() int
	// unit runs unit number i. rec is nil in the untraced run.
	unit(i int, rec *recorder, parent int) unitResult
	// observe hands the workload the speedometer to sample between the
	// parts of a long unit; those pauses stay out of the unit's times.
	observe(s *speedometer)
}

var workloadNames = []string{"figures_long", "extended_figures", "warmfork_stream", "fleet_stream", "service_mix"}

func newWorkload(name string) (benchWorkload, bool) {
	switch name {
	case "figures_long":
		o := experiments.Defaults()
		o.LockIterations, o.BarrierEpisodes, o.ReductionEpisodes = 16000, 2500, 2500
		// Quick lengths on the full list of machine sizes, so every size
		// the reps use has been built and pooled before timing starts.
		warm := experiments.Quick()
		warm.Procs = o.Procs
		return &figuresWL{name: name, names: []string{"fig8", "fig11", "fig14"}, opts: o, warm: warm}, true
	case "extended_figures":
		// Quick scale is the rep itself here, so the warm-up is shorter.
		warm := experiments.Quick()
		warm.LockIterations, warm.BarrierEpisodes, warm.ReductionEpisodes = 400, 60, 60
		return &figuresWL{name: name, names: []string{"extlocks", "contention", "ablations"}, opts: experiments.Quick(), warm: warm}, true
	case "warmfork_stream":
		return &streamWL{}, true
	case "fleet_stream":
		return &streamWL{fleet: true}, true
	case "service_mix":
		return &serviceWL{families: 10, replaysA: 100, replaysB: 10}, true
	}
	return nil, false
}

var streamFigures = []string{"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16"}

// render runs one catalog experiment and returns its tables as the CLI
// prints them.
func render(name string, o experiments.Options) string {
	e, ok := experiments.Lookup(name)
	if !ok {
		panic("bench: experiment " + name + " is not in the catalog")
	}
	var b strings.Builder
	for _, t := range e.Tables(o) {
		fmt.Fprintln(&b, t)
	}
	return b.String()
}

// digestOf hashes rendered outputs in the order of names, whatever order
// they were produced in.
func digestOf(names []string, out map[string]string) string {
	h := sha256.New()
	for _, n := range names {
		h.Write([]byte(out[n]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pointTally is what a dispatcher saw pass through it.
type pointTally struct {
	mu     sync.Mutex
	points int
	cycles uint64
	events uint64
	errs   []string
}

func (t *pointTally) add(results []experiments.PointResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.points += len(results)
	for _, r := range results {
		t.cycles += r.SimCycles
		t.events += r.SimEvents
	}
}

func (t *pointTally) fail(err error) {
	t.mu.Lock()
	t.errs = append(t.errs, err.Error())
	t.mu.Unlock()
}

// tracedDispatch is the benchmark's own point dispatcher for traced
// passes of local workloads: the same RunPointForked-on-the-pool the
// experiments package does itself, with a span around every point.
func tracedDispatch(rec *recorder, pool *runner.Pool, forks *experiments.WarmForkCache, figure int, tally *pointTally) experiments.PointDispatcher {
	group := rec.groupOf(figure)
	return func(pts []experiments.Point) []experiments.PointResult {
		jobs := make([]runner.Job[experiments.PointResult], len(pts))
		for i := range pts {
			pt := pts[i]
			jobs[i] = runner.Job[experiments.PointResult]{Label: pt.Label, Run: func() experiments.PointResult {
				id := rec.begin("point", pt.Label, figure, group)
				res, err := experiments.RunPointForked(pool.Context(), pt, forks)
				rec.end(id)
				if err != nil {
					tally.fail(err)
				}
				return res
			}}
		}
		results := runner.Map(pool, jobs)
		tally.add(results)
		return results
	}
}

// figuresWL renders a fixed list of catalog experiments on a local pool:
// figures_long and extended_figures.
type figuresWL struct {
	name  string
	names []string
	opts  experiments.Options
	warm  experiments.Options // the discarded warm-up rep of set-up
	seed  int64
	pool  *runner.Pool
	speed *speedometer
}

func (w *figuresWL) setup(seed int64, p int) error {
	w.seed = seed
	w.pool = runner.New(p)
	warm := w.warm
	warm.Runner = w.pool
	for _, n := range w.names {
		render(n, warm)
	}
	return nil
}

func (w *figuresWL) teardown()              { w.pool = nil }
func (w *figuresWL) observe(s *speedometer) { w.speed = s }
func (w *figuresWL) cycle() int             { return 1 }

func (w *figuresWL) unit(i int, rec *recorder, parent int) unitResult {
	var u unitResult
	o := w.opts
	o.Runner = w.pool
	before := w.pool.Progress()
	tally := &pointTally{}
	out := make(map[string]string, len(w.names))
	for k, n := range figureOrder(w.names, w.seed, i) {
		if k > 0 {
			w.speed.sampleIfDue(speedGap)
		}
		fig := rec.begin("figure", n, parent, 0)
		if rec != nil {
			o.Dispatch = tracedDispatch(rec, w.pool, nil, fig, tally)
		}
		f0 := time.Now()
		out[n] = render(n, o)
		rec.end(fig)
		u.figures = append(u.figures, time.Since(f0))
		u.wall += u.figures[k]
	}
	after := w.pool.Progress()
	u.simCycles = after.SimCycles - before.SimCycles
	u.ops = after.JobsDone - before.JobsDone
	u.opTime = u.wall
	u.simEvents = tally.events
	u.attempted = len(w.names)
	u.key, u.digest = w.name, digestOf(w.names, out)
	settle()
	for _, e := range tally.errs {
		u.fail("%s: point: %s", w.name, e)
	}
	return u
}

// swapHandler lets a traced unit put the measuring wrapper in front of a
// running server and take it away again.
type swapHandler struct{ h atomic.Pointer[http.Handler] }

func (s *swapHandler) set(h http.Handler) { s.h.Store(&h) }
func (s *swapHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	(*s.h.Load()).ServeHTTP(w, r)
}

// fleetRig is a cacheless coordinator behind an httptest server with
// long-lived in-process workers on default tuning.
type fleetRig struct {
	coord   *fleet.Coordinator
	mux     *http.ServeMux
	swap    *swapHandler
	ts      *httptest.Server
	cancel  context.CancelFunc
	workers sync.WaitGroup
}

func startFleet(workers int) (*fleetRig, error) {
	f := &fleetRig{coord: fleet.NewCoordinator(fleet.Config{}), mux: http.NewServeMux(), swap: &swapHandler{}}
	f.coord.Mount(f.mux)
	f.swap.set(f.mux)
	f.ts = httptest.NewServer(f.swap)
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < workers; i++ {
		wk := fleet.NewWorker(fleet.WorkerConfig{Coordinator: f.ts.URL, ID: fmt.Sprintf("bench-w%d", i)})
		f.workers.Add(1)
		go func() {
			defer f.workers.Done()
			_ = wk.Run(ctx) // returns ctx.Err() at stop; nothing to act on
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.coord.LiveWorkers() < workers {
		if time.Now().After(deadline) {
			n := f.coord.LiveWorkers()
			f.stop()
			return nil, fmt.Errorf("only %d of %d fleet workers registered", n, workers)
		}
		time.Sleep(time.Millisecond)
	}
	return f, nil
}

func (f *fleetRig) stop() {
	f.cancel()
	f.workers.Wait()
	f.ts.Close()
	f.coord.Close()
}

// dispatch sends points through the coordinator.
func (f *fleetRig) dispatch(tally *pointTally) experiments.PointDispatcher {
	return func(pts []experiments.Point) []experiments.PointResult {
		results, err := f.coord.RunPoints(context.Background(), pts, nil)
		if err != nil {
			tally.fail(err)
			return make([]experiments.PointResult, len(pts))
		}
		tally.add(results)
		return results
	}
}

// streamWL is the 12-round stream of warm-forked quick-scale figure
// sets: on the local pool (warmfork_stream) or through the fleet
// (fleet_stream). Both render the same tables.
type streamWL struct {
	fleet bool
	order []int
	pool  *runner.Pool
	rig   *fleetRig
}

func (w *streamWL) name() string {
	if w.fleet {
		return "fleet_stream"
	}
	return "warmfork_stream"
}

func (w *streamWL) setup(seed int64, p int) error {
	w.order = roundOrder(seed)
	if w.fleet {
		rig, err := startFleet(p)
		if err != nil {
			return err
		}
		w.rig = rig
	} else {
		w.pool = runner.New(p)
	}
	if u := w.round(warmupRound, nil, 0); len(u.notes) > 0 {
		w.teardown()
		return fmt.Errorf("warm-up round: %s", u.notes[0])
	}
	return nil
}

func (w *streamWL) teardown() {
	if w.rig != nil {
		w.rig.stop()
		w.rig = nil
	}
	w.pool = nil
}

func (w *streamWL) cycle() int { return streamRounds }

// observe: a round is short enough to be sampled around, not within.
func (w *streamWL) observe(*speedometer) {}

func (w *streamWL) unit(i int, rec *recorder, parent int) unitResult {
	return w.round(w.order[i%streamRounds], rec, parent).unitResult
}

type roundResult struct {
	unitResult
	checkpoints int // warm checkpoints built (local path)
}

// round renders figures 8-16 at round value v with a fresh warm-fork
// cache, as one CLI -warmfork invocation would.
func (w *streamWL) round(v int, rec *recorder, parent int) roundResult {
	var u roundResult
	o := roundOptions(v)
	o.Forks = experiments.NewWarmForkCache()
	o.Runner = w.pool
	tally := &pointTally{}
	var before runner.Snapshot
	if w.fleet {
		o.Dispatch = w.rig.dispatch(tally)
	} else {
		before = w.pool.Progress()
	}
	var cur atomic.Int64 // the figure span HTTP request spans hang under
	if w.fleet && rec != nil {
		w.rig.swap.set(newMuxWrap(w.rig.mux, rec, func() (int, int) {
			id := int(cur.Load())
			return id, rec.groupOf(id)
		}))
		defer w.rig.swap.set(w.rig.mux)
	}
	out := make(map[string]string, len(streamFigures))
	t0 := time.Now()
	for _, n := range streamFigures {
		fig := rec.begin("figure", n, parent, 0)
		cur.Store(int64(fig))
		if !w.fleet && rec != nil {
			o.Dispatch = tracedDispatch(rec, w.pool, o.Forks, fig, tally)
		}
		f0 := time.Now()
		out[n] = render(n, o)
		u.figures = append(u.figures, time.Since(f0))
		rec.end(fig)
	}
	u.wall = time.Since(t0)
	u.opTime = u.wall
	// Both streams share the round entries: their tables must be equal.
	u.key, u.digest = fmt.Sprintf("round/%d", v), digestOf(streamFigures, out)
	settle() // o.Forks, read just below, still holds the round's checkpoints
	u.checkpoints = o.Forks.Checkpoints()
	u.simEvents = tally.events
	if w.fleet {
		u.simCycles, u.ops = tally.cycles, tally.points
	} else {
		after := w.pool.Progress()
		u.simCycles, u.ops = after.SimCycles-before.SimCycles, after.JobsDone-before.JobsDone
	}
	u.attempted = len(streamFigures)
	for _, e := range tally.errs {
		u.fail("%s: point: %s", w.name(), e)
	}
	return u
}
