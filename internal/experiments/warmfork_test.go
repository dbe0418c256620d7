package experiments

import (
	"bytes"
	"context"
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
