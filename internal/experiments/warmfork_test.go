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
		Forks:             NewWarmForkCache(),
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
// the two-phase runner's result and the checkpoint API's forked run
// (which the workload tests prove equal each other).
func TestWarmForkMatchesFreshTwoPhase(t *testing.T) {
	o := warmForkOptions(0)
	p := workload.DefaultLockParams(protocols[2], 8)
	p.Iterations = o.LockIterations
	fresh := workload.TwoPhaseLockLoop(p, workload.MCS, workload.PlainLock)
	forked := workload.WarmLockLoop(p, workload.MCS, workload.PlainLock).Run()
	pt := o.lockPoint(workload.MCS, workload.PlainLock, protocols[2], 8)
	cached, err := RunPointForked(context.Background(), pt, o.Forks)
	if err != nil {
		t.Fatal(err)
	}
	if want := pointResult(fresh.Result, fresh.AvgLatency); !reflect.DeepEqual(want, cached) {
		t.Errorf("memoized point differs from the two-phase runner\nfresh:  %+v\ncached: %+v", want, cached)
	}
	if want := pointResult(forked.Result, forked.AvgLatency); !reflect.DeepEqual(want, cached) {
		t.Errorf("memoized point differs from the forked checkpoint run\nforked: %+v\ncached: %+v", want, cached)
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
	shared.Forks = NewWarmForkCache()
	st, sm, sb := render(shared)
	if n, runs := shared.Forks.Checkpoints(), strings.Count(sm, `"label"`); n >= runs {
		t.Errorf("memo simulated %d points for %d collected runs; figures 8-10 must repeat some", n, runs)
	}
	private := Quick()
	private.Forks = NewWarmForkCache() // marks the points warm_fork; Dispatch bypasses it
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
	c := NewWarmForkCache()
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
	c := NewWarmForkCache()
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
	want, _ := RunPointForked(context.Background(), pt, NewWarmForkCache())
	if !reflect.DeepEqual(fresh, want) {
		t.Error("rebuilt result differs from a clean cache's")
	}
}

// TestWarmForkCancelledWaiter: a goroutine waiting on another's
// in-flight simulation returns early when its own context is cancelled,
// without disturbing the builder.
func TestWarmForkCancelledWaiter(t *testing.T) {
	c := NewWarmForkCache()
	pt := Point{Family: FamilyLock, Procs: 2, Iterations: 64, WarmFork: true}
	built := PointResult{Latency: 42}
	started := make(chan struct{})
	release := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		c.run(context.Background(), pt, func() (PointResult, error) {
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
	if got, err := c.run(cancelledCtx(), pt, noBuild); err != nil || !reflect.DeepEqual(got, PointResult{}) {
		t.Errorf("cancelled waiter = (%+v, %v), want the zero result", got, err)
	}
	close(release)
	<-finished
	// The original simulation completes and is visible to later callers.
	if got, err := c.run(context.Background(), pt, noBuild); err != nil || !reflect.DeepEqual(got, built) {
		t.Errorf("run after build = (%+v, %v), want the built result", got, err)
	}
}

// TestWarmForkCancelledBarrierAndReduction covers the cancellation path
// for the remaining two families.
func TestWarmForkCancelledBarrierAndReduction(t *testing.T) {
	c := NewWarmForkCache()
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
	"lockvariants", "redvariants", "extlocks",
}

// TestMemoNeverChangesOutput renders every point-decomposed catalog
// experiment with both collectors attached: on the plain local path with
// no memo, and twice through one shared memo, at 1 and 4 workers. The
// memo may only save simulations: tables and both reports stay
// byte-identical, and it holds exactly one entry per content address.
func TestMemoNeverChangesOutput(t *testing.T) {
	var keys map[string]bool // distinct Point.Key()s of one rendering
	total := 0
	render := func(workers int, memo *WarmForkCache, record bool) string {
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
		memo := NewWarmForkCache()
		for pass := 1; pass <= 2; pass++ {
			if got := render(workers, memo, false); got != want {
				t.Errorf("%d workers, pass %d through the memo: output differs from the memo-less rendering", workers, pass)
			}
			if n := memo.Checkpoints(); n != len(keys) {
				t.Errorf("%d workers, pass %d: memo holds %d points, want one per distinct key (%d)", workers, pass, n, len(keys))
			}
		}
		if hits, misses, _ := memo.Stats(); int(misses) != len(keys) || int(hits) != 2*total-len(keys) {
			t.Errorf("%d workers: memo hits %d misses %d, want %d and %d", workers, hits, misses, 2*total-len(keys), len(keys))
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

// TestMemoCapEvictsOldestFirst: the memo never holds more than memoCap
// points, evicts in insertion order, an evicted point re-simulates to
// the same bytes, and eviction does not cut off the callers of an entry
// still being built.
func TestMemoCapEvictsOldestFirst(t *testing.T) {
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
	c := NewWarmForkCache()
	run := func(pt Point) []byte {
		res, err := RunPointForked(ctx, pt, c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if n := c.Checkpoints(); n > memoCap {
			t.Fatalf("memo holds %d points, cap is %d", n, memoCap)
		}
		return b
	}
	first := make([][]byte, len(pts))
	for i, pt := range pts {
		first[i] = run(pt)
	}
	misses := func() uint64 { _, m, _ := c.Stats(); return m }
	if n, m := c.Checkpoints(), misses(); n != memoCap || m != uint64(len(pts)) {
		t.Fatalf("after %d distinct points: %d held, %d simulated; want %d and all", len(pts), n, m, memoCap)
	}
	oldestHeld := len(pts) - memoCap
	for _, step := range []struct {
		i    int
		miss uint64
		what string
	}{
		{oldestHeld, 0, "the oldest point still held"},
		{0, 1, "an evicted point"},
		{oldestHeld, 1, "the oldest held point after one more insertion"},
		{len(pts) - 1, 0, "the newest point"},
	} {
		before := misses()
		if got := run(pts[step.i]); !bytes.Equal(got, first[step.i]) {
			t.Errorf("%s came back with different bytes", step.what)
		}
		if got := misses() - before; got != step.miss {
			t.Errorf("%s: %d simulations, want %d", step.what, got, step.miss)
		}
	}

	// Evict an entry while its builder is running and a waiter holds it.
	c = NewWarmForkCache()
	inflight := Point{Family: FamilyBarrier, Procs: 2, Iterations: 4}
	built := PointResult{Latency: 42}
	started, release := make(chan struct{}), make(chan struct{})
	results := make(chan PointResult, 2)
	go func() {
		r, _ := c.run(ctx, inflight, func() (PointResult, error) {
			close(started)
			<-release
			return built, nil
		})
		results <- r
	}()
	<-started
	spy := &doneSpy{Context: ctx, asked: make(chan struct{})}
	go func() {
		r, _ := c.run(spy, inflight, func() (PointResult, error) {
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
			t.Errorf("caller of an evicted in-flight entry got %+v, want the built result", r)
		}
	}
	// The entry is gone from the map: the next request simulates.
	if r, err := RunPointForked(ctx, inflight, c); err != nil || reflect.DeepEqual(r, built) {
		t.Errorf("request after eviction = (%+v, %v), want a fresh simulation", r, err)
	}
}

// TestMemoLookupAndStore: the two accessors of an owner that simulates
// elsewhere. Store files a result once (a held point keeps its entry,
// labels do not split it), Lookup answers from finished entries only —
// it does not wait for a simulation in flight — and both count as the
// single-flight path does: a stored result is a miss, an answer a hit.
func TestMemoLookupAndStore(t *testing.T) {
	c := NewWarmForkCache()
	pt := Point{Family: FamilyLock, Kind: int(workload.Ticket), Protocol: protocols[0], Procs: 2, Iterations: 64, Label: "asked"}
	want, err := RunPointForked(context.Background(), pt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Lookup(pt); ok {
		t.Fatal("an empty memo answered")
	}
	c.Store(pt, want)
	pt.Label = "asked again"
	c.Store(pt, PointResult{}) // held: must not replace the entry
	got, ok := c.Lookup(pt)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("Lookup after Store: ok %v, equal %v", ok, reflect.DeepEqual(got, want))
	}
	if hits, misses, served := c.Stats(); hits != 1 || misses != 1 || served != want.SimCycles || c.Checkpoints() != 1 {
		t.Errorf("hits %d misses %d served %d entries %d; want 1, 1, %d, 1", hits, misses, served, c.Checkpoints(), want.SimCycles)
	}

	// A point being simulated is held but not finished.
	other := pt
	other.Procs = 4
	building, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.run(context.Background(), other, func() (PointResult, error) {
			close(building)
			<-release
			return want, nil
		})
	}()
	<-building
	if _, ok := c.Lookup(other); ok {
		t.Error("Lookup answered from an entry still being simulated")
	}
	close(release)
	<-done
	if _, ok := c.Lookup(other); !ok {
		t.Error("Lookup missed the entry once its simulation finished")
	}
}
