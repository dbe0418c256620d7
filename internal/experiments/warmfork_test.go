package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"coherencesim/internal/metrics"
	"coherencesim/internal/runner"
	"coherencesim/internal/store"
	"coherencesim/internal/trace"
	"coherencesim/internal/workload"
)

func warmForkOptions(workers int) Options {
	o := Options{
		Procs:             []int{1, 2, 8},
		TrafficProcs:      8,
		LockIterations:    320,
		BarrierEpisodes:   40,
		ReductionEpisodes: 40,
		Forks:             NewPointMemo(PointStore(nil)),
	}
	if workers > 0 {
		o.Runner = runner.New(workers)
	}
	return o
}

// TestWarmForkSweepDeterministicAcrossWorkers runs warm-forked figures
// at several worker counts: the memo's single-flight races must never
// leak into results, so every sweep (and the collected metrics report)
// is byte-identical to the serial warm-forked run.
func TestWarmForkSweepDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) (*LatencySweep, *LatencySweep, *MissBreakdown, []byte) {
		o := warmForkOptions(workers)
		o.Metrics = metrics.NewCollector(2000)
		f8 := Figure8(o)
		f11 := Figure11(o)
		f9 := Figure9(o)
		var buf bytes.Buffer
		if err := o.Metrics.Report().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return f8, f11, f9, buf.Bytes()
	}
	base8, base11, base9, baseRep := run(0)
	for _, workers := range []int{1, 2, 8} {
		f8, f11, f9, rep := run(workers)
		if !reflect.DeepEqual(base8, f8) {
			t.Errorf("Figure 8 at %d workers differs from serial warm-forked run", workers)
		}
		if !reflect.DeepEqual(base11, f11) {
			t.Errorf("Figure 11 at %d workers differs from serial warm-forked run", workers)
		}
		if !reflect.DeepEqual(base9, f9) {
			t.Errorf("Figure 9 at %d workers differs from serial warm-forked run", workers)
		}
		if !bytes.Equal(baseRep, rep) {
			t.Errorf("metrics report at %d workers differs from serial warm-forked run", workers)
		}
	}
}

// TestWarmForkMatchesFreshTwoPhase pins the memo's semantics to the
// workload layer's: a figure point produced through the cache equals
// the two-phase runner's result.
func TestWarmForkMatchesFreshTwoPhase(t *testing.T) {
	o := warmForkOptions(0)
	p := workload.DefaultLockParams(protocols[2], 8)
	p.Iterations = o.LockIterations
	fresh := workload.TwoPhaseLockLoop(p, workload.MCS, workload.PlainLock)
	pt := o.lockPoint(workload.MCS, workload.PlainLock, protocols[2], 8)
	cached, err := RunPointForked(context.Background(), pt, o.Forks)
	if err != nil {
		t.Fatal(err)
	}
	if want := pointResult(fresh.Result, fresh.AvgLatency, fresh.Acquires); !reflect.DeepEqual(want, cached) {
		t.Errorf("memoized point differs from the two-phase runner\nfresh:  %+v\ncached: %+v", want, cached)
	}
}

// TestWarmForkCheckpointsShared checks the cross-figure payoff: figures
// 9 and 10 request identical lock-traffic points, so running both
// simulates each point once.
func TestWarmForkCheckpointsShared(t *testing.T) {
	o := warmForkOptions(2)
	Figure9(o)
	after9 := o.Forks.Checkpoints()
	if after9 == 0 {
		t.Fatal("Figure 9 simulated no points")
	}
	Figure10(o)
	if got := o.Forks.Checkpoints(); got != after9 {
		t.Errorf("Figure 10 simulated %d extra points; figures 9 and 10 must share all of them", got-after9)
	}
}

// TestWarmForkMemoMatchesPrivatePerPoint renders figures 8-10 with both
// collectors attached, once through a shared memo and once through a
// dispatcher that simulates every point privately. Memoized results
// share their metrics and breakdown snapshots between repeats, so the
// tables and both reports must still be byte-identical.
func TestWarmForkMemoMatchesPrivatePerPoint(t *testing.T) {
	render := func(o Options) (tables, metricsJSON, breakdown string) {
		o.Metrics = metrics.NewCollector(2000)
		o.Breakdown = trace.NewBreakdownCollector()
		tables = Figure8(o).Table().String() + Figure9(o).Table().String() + Figure10(o).Table().String()
		var buf bytes.Buffer
		if err := o.Metrics.Report().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return tables, buf.String(), o.Breakdown.Report().Table()
	}
	shared := Quick()
	shared.Forks = NewPointMemo(PointStore(nil))
	st, sm, sb := render(shared)
	if n, runs := shared.Forks.Checkpoints(), strings.Count(sm, `"label"`); n >= runs {
		t.Errorf("memo simulated %d points for %d collected runs; figures 8-10 must repeat some", n, runs)
	}
	private := Quick()
	private.Forks = NewPointMemo(PointStore(nil)) // marks the points warm_fork; Dispatch bypasses it
	private.Dispatch = func(pts []Point) []PointResult {
		out := make([]PointResult, len(pts))
		for i, pt := range pts {
			r, err := RunPointForked(context.Background(), pt, nil)
			if err != nil {
				t.Errorf("RunPointForked(%s): %v", pt.Label, err)
			}
			out[i] = r
		}
		return out
	}
	pt, pm, pb := render(private)
	if n := private.Forks.Checkpoints(); n != 0 {
		t.Errorf("per-point dispatch went through the memo (%d entries)", n)
	}
	if st != pt {
		t.Errorf("tables differ between shared memo and private per-point runs:\nshared:\n%s\nprivate:\n%s", st, pt)
	}
	if sm != pm {
		t.Error("metrics report differs between shared memo and private per-point runs")
	}
	if sb != pb {
		t.Error("breakdown report differs between shared memo and private per-point runs")
	}
}

// TestWarmForkSingleFlight: concurrent requests for one point elect one
// simulation; every caller gets the identical result.
func TestWarmForkSingleFlight(t *testing.T) {
	c := NewPointMemo(PointStore(nil))
	pt := Point{Family: FamilyLock, Kind: int(workload.MCS), Protocol: protocols[2], Procs: 8,
		Iterations: 640, MetricsInterval: 2000, Breakdown: true, WarmFork: true}
	const callers = 8
	got := make([]PointResult, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			labeled := pt
			labeled.Label = fmt.Sprintf("caller %d", i) // labels do not split the entry
			r, err := RunPointForked(context.Background(), labeled, c)
			if err != nil {
				t.Error(err)
			}
			got[i] = r
		}(i)
	}
	wg.Wait()
	if n := c.Checkpoints(); n != 1 {
		t.Errorf("%d callers simulated %d points, want 1", callers, n)
	}
	want, err := RunPointForked(context.Background(), pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !reflect.DeepEqual(want, got[i]) {
			t.Errorf("caller %d: memoized result differs from a private run", i)
		}
	}
}

// cancelledCtx returns an already-cancelled context.
func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// TestWarmForkCancelledBeforeBuild: a cancelled context never starts a
// simulation and leaves no entry behind — a later caller with a live
// context simulates the point itself.
func TestWarmForkCancelledBeforeBuild(t *testing.T) {
	c := NewPointMemo(PointStore(nil))
	pt := Point{Family: FamilyLock, Kind: int(workload.Ticket), Procs: 2, Iterations: 64, WarmFork: true}
	got, err := RunPointForked(cancelledCtx(), pt, c)
	if err != nil || !reflect.DeepEqual(got, PointResult{}) {
		t.Errorf("cancelled run = (%+v, %v), want the zero result", got, err)
	}
	if n := c.Checkpoints(); n != 0 {
		t.Errorf("cancelled run left %d entries, want 0", n)
	}
	// A later batch sharing the cache must rebuild cleanly.
	fresh, err := RunPointForked(context.Background(), pt, c)
	if err != nil || reflect.DeepEqual(fresh, PointResult{}) {
		t.Errorf("rebuild after a cancelled run = (%+v, %v), want a real result", fresh, err)
	}
	if n := c.Checkpoints(); n != 1 {
		t.Errorf("rebuild left %d entries, want 1", n)
	}
	// And the rebuilt entry matches one built with no history.
	want, _ := RunPointForked(context.Background(), pt, NewPointMemo(PointStore(nil)))
	if !reflect.DeepEqual(fresh, want) {
		t.Error("rebuilt result differs from a clean cache's")
	}
}

// TestWarmForkCancelledWaiter: a goroutine waiting on another's
// in-flight simulation returns early when its own context is cancelled,
// without disturbing the builder.
func TestWarmForkCancelledWaiter(t *testing.T) {
	c := NewPointMemo(PointStore(nil))
	pt := Point{Family: FamilyLock, Procs: 2, Iterations: 64, WarmFork: true}
	built := PointResult{Latency: 42}
	started := make(chan struct{})
	release := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		c.Do(context.Background(), pt, func() (PointResult, error) {
			close(started)
			<-release
			return built, nil
		})
	}()
	<-started
	noBuild := func() (PointResult, error) {
		t.Error("second caller became builder")
		return PointResult{}, nil
	}
	if got, err := c.Do(cancelledCtx(), pt, noBuild); err != nil || !reflect.DeepEqual(got, PointResult{}) {
		t.Errorf("cancelled waiter = (%+v, %v), want the zero result", got, err)
	}
	close(release)
	<-finished
	// The original simulation completes and is visible to later callers.
	if got, err := c.Do(context.Background(), pt, noBuild); err != nil || !reflect.DeepEqual(got, built) {
		t.Errorf("run after build = (%+v, %v), want the built result", got, err)
	}
}

// TestWarmForkCancelledBarrierAndReduction covers the cancellation path
// for the remaining two families.
func TestWarmForkCancelledBarrierAndReduction(t *testing.T) {
	c := NewPointMemo(PointStore(nil))
	for _, pt := range []Point{
		{Family: FamilyBarrier, Kind: int(workload.Central), Procs: 2, Iterations: 8, WarmFork: true},
		{Family: FamilyReduction, Kind: int(workload.Sequential), Variant: 1, Procs: 2, Iterations: 8, WarmFork: true},
	} {
		if got, err := RunPointForked(cancelledCtx(), pt, c); err != nil || !reflect.DeepEqual(got, PointResult{}) {
			t.Errorf("cancelled %s run = (%+v, %v), want the zero result", pt.Family, got, err)
		}
	}
	if n := c.Checkpoints(); n != 0 {
		t.Errorf("cancelled runs left %d entries, want 0", n)
	}
}

// pointExperiments are the catalog entries that decompose into points,
// the ones a memo can serve.
var pointExperiments = []string{
	"fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
	"lockvariants", "redvariants", "extlocks", "apps",
}

// TestMemoNeverChangesOutput renders every point-decomposed catalog
// experiment with both collectors attached: on the plain local path with
// no memo, and twice through one shared memo, at 1 and 4 workers. The
// memo may only save simulations: tables and both reports stay
// byte-identical, and it holds exactly one entry per content address.
func TestMemoNeverChangesOutput(t *testing.T) {
	var keys map[string]bool // distinct Point.Key()s of one rendering
	total := 0
	render := func(workers int, memo *PointMemo, record bool) string {
		o := Options{
			Procs: []int{1, 2, 8}, TrafficProcs: 8,
			LockIterations: 320, BarrierEpisodes: 40, ReductionEpisodes: 40,
			Runner: runner.New(workers), Memo: memo,
		}
		o.Metrics = metrics.NewCollector(2000)
		o.Breakdown = trace.NewBreakdownCollector()
		if record {
			keys = make(map[string]bool)
			o.Dispatch = func(pts []Point) []PointResult {
				for _, pt := range pts {
					keys[pt.Key()] = true
				}
				total += len(pts)
				local := o
				local.Dispatch = nil
				return local.runPoints(pts)
			}
		}
		var b bytes.Buffer
		for _, name := range pointExperiments {
			e, ok := Lookup(name)
			if !ok {
				t.Fatalf("no catalog entry %q", name)
			}
			for _, tbl := range e.Tables(o) {
				fmt.Fprintln(&b, tbl)
			}
		}
		if err := o.Metrics.Report().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if err := o.Breakdown.Report().WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	want := render(1, nil, true)
	if len(keys) == 0 || len(keys) >= total {
		t.Fatalf("%d distinct keys among %d points; the figure triplets must repeat some", len(keys), total)
	}
	for _, workers := range []int{1, 4} {
		memo := NewPointMemo(PointStore(nil))
		for pass := 1; pass <= 2; pass++ {
			if got := render(workers, memo, false); got != want {
				t.Errorf("%d workers, pass %d through the memo: output differs from the memo-less rendering", workers, pass)
			}
			if n := memo.Checkpoints(); n != len(keys) {
				t.Errorf("%d workers, pass %d: memo holds %d points, want one per distinct key (%d)", workers, pass, n, len(keys))
			}
		}
		if ms := memo.Stats(); int(ms.Builds) != len(keys) || int(ms.Hits) != 2*total-len(keys) {
			t.Errorf("%d workers: memo hits %d builds %d, want %d and %d", workers, ms.Hits, ms.Builds, 2*total-len(keys), len(keys))
		}
	}
}

// doneSpy is a context that reports when someone first asks for its
// Done channel: a memo waiter does so only once it holds its entry.
type doneSpy struct {
	context.Context
	once  sync.Once
	asked chan struct{}
}

func (d *doneSpy) Done() <-chan struct{} {
	d.once.Do(func() { close(d.asked) })
	return d.Context.Done()
}

// TestMemoCapEvictsLeastRecentlyUsed: the memo never holds more than
// memoCap finished points, evicts the least recently used, an evicted
// point re-simulates to the same bytes, and a simulation in flight is
// never evicted: its callers get the result, and the memo keeps it.
func TestMemoCapEvictsLeastRecentlyUsed(t *testing.T) {
	ctx := context.Background()
	var pts []Point
	for iters := 1; len(pts) < 3*memoCap; iters++ {
		for _, kind := range lockKinds {
			for _, pr := range protocols {
				pts = append(pts, Point{Family: FamilyLock, Kind: int(kind), Protocol: pr, Procs: 1, Iterations: iters})
			}
		}
	}
	pts = pts[:3*memoCap]
	c := NewPointMemo(PointStore(nil))
	run := func(pt Point) []byte {
		res, err := RunPointForked(ctx, pt, c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if held := c.Stats().Weight; held > memoCap {
			t.Fatalf("memo holds %d points, cap is %d", held, memoCap)
		}
		return b
	}
	first := make([][]byte, len(pts))
	for i, pt := range pts {
		first[i] = run(pt)
	}
	builds := func() uint64 { return c.Stats().Builds }
	if n, b := c.Checkpoints(), builds(); n != memoCap || b != uint64(len(pts)) {
		t.Fatalf("after %d distinct points: %d held, %d simulated; want %d and all", len(pts), n, b, memoCap)
	}
	oldestHeld := len(pts) - memoCap
	for _, step := range []struct {
		i     int
		build uint64
		what  string
	}{
		{oldestHeld, 0, "the oldest point still held (now the most recently used)"},
		{0, 1, "an evicted point"},
		{oldestHeld, 0, "the point used just before that insertion"},
		{oldestHeld + 1, 1, "the least recently used point, which that insertion evicted"},
		{len(pts) - 1, 0, "the newest point"},
	} {
		before := builds()
		if got := run(pts[step.i]); !bytes.Equal(got, first[step.i]) {
			t.Errorf("%s came back with different bytes", step.what)
		}
		if got := builds() - before; got != step.build {
			t.Errorf("%s: %d simulations, want %d", step.what, got, step.build)
		}
	}

	// Fill the memo past its cap while a build is running and a waiter
	// holds it.
	c = NewPointMemo(PointStore(nil))
	inflight := Point{Family: FamilyBarrier, Procs: 2, Iterations: 4}
	built := PointResult{Latency: 42}
	started, release := make(chan struct{}), make(chan struct{})
	results := make(chan PointResult, 2)
	go func() {
		r, _ := c.Do(ctx, inflight, func() (PointResult, error) {
			close(started)
			<-release
			return built, nil
		})
		results <- r
	}()
	<-started
	spy := &doneSpy{Context: ctx, asked: make(chan struct{})}
	go func() {
		r, _ := c.Do(spy, inflight, func() (PointResult, error) {
			t.Error("the waiter became a builder")
			return PointResult{}, nil
		})
		results <- r
	}()
	<-spy.asked
	for _, pt := range pts[:memoCap] {
		run(pt)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if r := <-results; !reflect.DeepEqual(r, built) {
			t.Errorf("caller of the in-flight build got %+v, want the built result", r)
		}
	}
	// The finished build is the most recent entry: the next request is a hit.
	before := builds()
	if r, err := RunPointForked(ctx, inflight, c); err != nil || !reflect.DeepEqual(r, built) || builds() != before {
		t.Errorf("request after the build = (%+v, %v) with %d simulations, want the built result and none", r, err, builds()-before)
	}
}

// TestMemoGetPeekPut: the accessors of an owner that simulates elsewhere
// (the fleet coordinator), over a durable layer. Put files a result and
// writes it through; Get answers from memory, else loads from the
// durable layer into memory; Peek answers from memory alone. None of
// them waits for a simulation in flight, and the single-flight path
// never touches the durable layer. A filed result is a build, an answer
// from memory a hit, one from the durable layer a load; the unlabeled
// point is the key, so labels do not split an entry.
func TestMemoGetPeekPut(t *testing.T) {
	var loads, saves int
	disk := map[Point]PointResult{}
	c := NewPointMemo(store.Durable[Point, PointResult]{
		Load: func(pt Point) (PointResult, bool) {
			loads++
			r, ok := disk[pt]
			return r, ok
		},
		Save: func(pt Point, r PointResult) {
			saves++
			disk[pt] = r
		},
	})
	pt := Point{Family: FamilyLock, Kind: int(workload.Ticket), Protocol: protocols[0], Procs: 2, Iterations: 64, Label: "asked"}
	want, err := RunPointForked(context.Background(), pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get(pt.Unlabeled()); ok {
		t.Fatal("an empty memo answered")
	}
	c.Put(pt.Unlabeled(), want)
	if saves != 1 || !reflect.DeepEqual(disk[pt.Unlabeled()], want) {
		t.Errorf("Put wrote %d times through; want once", saves)
	}
	pt.Label = "asked again"
	got, ok, loaded := c.Get(pt.Unlabeled())
	if !ok || loaded || !reflect.DeepEqual(got, want) {
		t.Errorf("Get after Put: ok %v loaded %v equal %v; want an answer from memory", ok, loaded, reflect.DeepEqual(got, want))
	}
	if ms := c.Stats(); ms.Hits != 1 || ms.Builds != 1 || ms.Loads != 0 || ms.Saved != want.SimCycles || ms.Entries != 1 {
		t.Errorf("stats %+v; want 1 hit, 1 build, no load, %d saved cycles, 1 entry", ms, want.SimCycles)
	}

	// A result only the durable layer holds (a restart) loads into memory.
	stored := pt.Unlabeled()
	stored.Procs = 3
	disk[stored] = want
	if _, ok := c.Peek(stored); ok {
		t.Error("Peek read the durable layer")
	}
	if got, ok, loaded := c.Get(stored); !ok || !loaded || !reflect.DeepEqual(got, want) {
		t.Errorf("Get of a stored point: ok %v loaded %v; want it loaded", ok, loaded)
	}
	if _, ok := c.Peek(stored); !ok {
		t.Error("a loaded point is not in memory")
	}
	if ms := c.Stats(); ms.Builds != 1 || ms.Loads != 1 || saves != 1 {
		t.Errorf("stats %+v after %d writes; a loaded point is neither a build nor written back", ms, saves)
	}

	// A point being simulated is held but not finished, and the
	// single-flight path never reads or writes the durable layer.
	other := pt.Unlabeled()
	other.Procs = 4
	loadsBefore := loads
	building, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.Do(context.Background(), other, func() (PointResult, error) {
			close(building)
			<-release
			return want, nil
		})
	}()
	<-building
	if _, ok := c.Peek(other); ok {
		t.Error("Peek answered from an entry still being simulated")
	}
	close(release)
	<-done
	if _, ok := c.Peek(other); !ok {
		t.Error("Peek missed the entry once its simulation finished")
	}
	if loads != loadsBefore || saves != 1 {
		t.Errorf("the single-flight path read the durable layer %d times and wrote it %d times", loads-loadsBefore, saves-1)
	}
}
