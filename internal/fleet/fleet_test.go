package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coherencesim/internal/experiments"
	"coherencesim/internal/proto"
	"coherencesim/internal/runner"
	"coherencesim/internal/store"
)

// quickPoints builds a small but real batch of distinct lock points
// (the simulations are tiny: some 64 total acquires each).
func quickPoints(n int) []experiments.Point {
	var pts []experiments.Point
	for i := 0; i < n; i++ {
		pts = append(pts, experiments.Point{
			Family:     experiments.FamilyLock,
			Kind:       i % 3, // Ticket, MCS, UpdateConsciousMCS
			Protocol:   proto.Protocol(i % 3),
			Procs:      1 + i%4,
			Iterations: 64 + 12*(i/12), // kind, protocol and size repeat every 12
			Label:      fmt.Sprintf("test/pt%d", i),
		})
	}
	return pts
}

// baseline executes points directly, the way a single process would.
func baseline(t *testing.T, pts []experiments.Point) []experiments.PointResult {
	t.Helper()
	out := make([]experiments.PointResult, len(pts))
	for i, pt := range pts {
		r, err := experiments.RunPointForked(context.Background(), pt, nil)
		if err != nil {
			t.Fatalf("RunPointForked(%v): %v", pt, err)
		}
		out[i] = r
	}
	return out
}

// memCache is an in-memory durable layer for a memo, counting writes:
// a result is kept as its JSON under the point's content address, as
// experiments.PointStore keeps it.
type memCache struct {
	mu   sync.Mutex
	m    map[string][]byte
	puts map[string]int // writes per key
}

func newMemCache() *memCache {
	return &memCache{m: make(map[string][]byte), puts: make(map[string]int)}
}

func (c *memCache) putCount() (n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range c.puts {
		n += k
	}
	return n
}

func (c *memCache) putsOf(key string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.puts[key]
}

func (c *memCache) durable() store.Durable[experiments.Point, experiments.PointResult] {
	return store.Durable[experiments.Point, experiments.PointResult]{
		Load: func(pt experiments.Point) (r experiments.PointResult, ok bool) {
			c.mu.Lock()
			b, ok := c.m[pt.Key()]
			c.mu.Unlock()
			return r, ok && json.Unmarshal(b, &r) == nil
		},
		Save: func(pt experiments.Point, r experiments.PointResult) {
			b, err := json.Marshal(r)
			if err != nil {
				panic(err) // a PointResult is plain data
			}
			c.mu.Lock()
			defer c.mu.Unlock()
			c.m[pt.Key()] = b
			c.puts[pt.Key()]++
		},
	}
}

// testConfig is a fast-timing config on a fresh memo over durable.
func testConfig(durable store.Durable[experiments.Point, experiments.PointResult]) Config {
	return Config{
		HeartbeatTimeout: 300 * time.Millisecond,
		PollWait:         50 * time.Millisecond,
		RetryBackoff:     10 * time.Millisecond,
		Memo:             experiments.NewPointMemo(durable),
	}
}

// noStore is a memo with no durable layer.
var noStore store.Durable[experiments.Point, experiments.PointResult]

// startWorkers attaches n workers to the coordinator over real HTTP and
// returns a stop function per worker.
func startWorkers(t *testing.T, coord *Coordinator, n int) (workers []*Worker, stops []context.CancelFunc) {
	t.Helper()
	cfgs := make([]WorkerConfig, n)
	for i := range cfgs {
		cfgs[i] = WorkerConfig{ID: fmt.Sprintf("w%d", i)}
	}
	return startFleet(t, coord, cfgs)
}

// startFleet attaches one worker per config (Coordinator filled in) and
// waits for every one to register. It may be called again to grow the
// fleet.
func startFleet(t *testing.T, coord *Coordinator, cfgs []WorkerConfig) (workers []*Worker, stops []context.CancelFunc) {
	t.Helper()
	want := coord.LiveWorkers() + len(cfgs)
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	for i := range cfgs {
		cfg := cfgs[i]
		cfg.Coordinator = ts.URL
		if cfg.ID == "" {
			cfg.ID = fmt.Sprintf("w%d", i)
		}
		ctx, cancel := context.WithCancel(context.Background())
		stops = append(stops, cancel)
		t.Cleanup(cancel)
		w := NewWorker(cfg)
		workers = append(workers, w)
		go w.Run(ctx)
	}
	// Wait until every worker has registered.
	deadline := time.Now().Add(5 * time.Second)
	for coord.LiveWorkers() < want {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d workers registered", coord.LiveWorkers(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return workers, stops
}

// TestRunPointsMatchesBaselineAcrossWorkerCounts is the fabric's core
// identity guarantee: any worker count, at one or two slots per worker,
// assembles the exact results a single process computes — for plain
// points and for the warm-forked fig8/fig11-class sweeps alike.
func TestRunPointsMatchesBaselineAcrossWorkerCounts(t *testing.T) {
	for _, sweep := range []struct {
		name string
		pts  []experiments.Point
	}{{"quick", quickPoints(8)}, {"fig8", fig8Points()}, {"fig11", fig11Points()}} {
		want := baseline(t, sweep.pts)
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/%dw", sweep.name, workers), func(t *testing.T) {
				coord := NewCoordinator(testConfig(noStore))
				defer coord.Close()
				cfgs := make([]WorkerConfig, workers)
				for i := range cfgs {
					cfgs[i].Parallel = 1 + i%2
				}
				startFleet(t, coord, cfgs)
				got, err := coord.RunPoints(context.Background(), sweep.pts, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("results differ from single-process baseline")
				}
				if st := coord.Stats(); st.Dispatched != uint64(len(sweep.pts)) || st.DupCompletes != 0 {
					t.Errorf("stats = %+v, want %d leases and no duplicate", st, len(sweep.pts))
				}
			})
		}
	}
}

// TestLocalFallbackWithZeroWorkers: a coordinator with no fleet still
// completes every job by executing shards itself.
func TestLocalFallbackWithZeroWorkers(t *testing.T) {
	pts := quickPoints(4)
	want := baseline(t, pts)
	coord := NewCoordinator(testConfig(noStore))
	defer coord.Close()
	got, err := coord.RunPoints(context.Background(), pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("local-fallback results differ from baseline")
	}
	if st := coord.Stats(); st.LocalRuns == 0 {
		t.Error("no local runs recorded despite zero workers")
	}
}

// TestWorkerDeathMidSweepStillIdentical kills one of two workers while
// a sweep is in flight: its leased shards must be reassigned and the
// assembled results must still match the baseline exactly.
func TestWorkerDeathMidSweepStillIdentical(t *testing.T) {
	pts := quickPoints(12)
	want := baseline(t, pts)
	coord := NewCoordinator(testConfig(noStore))
	defer coord.Close()
	_, stops := startWorkers(t, coord, 2)

	done := make(chan struct{})
	var got []experiments.PointResult
	var err error
	go func() {
		defer close(done)
		got, err = coord.RunPoints(context.Background(), pts, nil)
	}()
	// Let the sweep start, then kill worker 0 abruptly (its context
	// dies; no deregistration — the heartbeat timeout must notice).
	time.Sleep(30 * time.Millisecond)
	stops[0]()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not complete after worker death")
	}
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("results after worker death differ from baseline")
	}
}

// TestRestartedCoordinatorAnswersFromStore: a coordinator restarted on
// the same store (experiments.PointStore) answers an identical batch from
// it, leasing nothing, with the bytes it computed before; it moves what
// it read into its memo, so the batch after that costs no read, and
// writes nothing back.
func TestRestartedCoordinatorAnswersFromStore(t *testing.T) {
	pts := quickPoints(4)
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	before := NewCoordinator(testConfig(experiments.PointStore(st)))
	defer before.Close()
	first, err := before.RunPoints(context.Background(), pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(testConfig(experiments.PointStore(st)))
	defer coord.Close()
	for batch, want := range []Stats{{CacheHits: 4}, {CacheHits: 4, Coalesced: 4}} {
		again, err := coord.RunPoints(context.Background(), pts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) {
			t.Errorf("batch %d: answered results differ from computed results", batch)
		}
		if st := coord.Stats(); st != want {
			t.Errorf("batch %d: stats %+v, want %+v", batch, st, want)
		}
	}
	if ss := st.Stats(); ss.Writes != uint64(len(pts)) || ss.Hits != uint64(len(pts)) {
		t.Errorf("%d store writes and %d reads, want %d each: an answered point is neither written back nor read twice", ss.Writes, ss.Hits, len(pts))
	}
	if ms := coord.cfg.Memo.Stats(); ms.Builds != 0 || ms.Loads != uint64(len(pts)) {
		t.Errorf("the restarted memo counts %d points simulated and %d loaded, want 0 and %d", ms.Builds, ms.Loads, len(pts))
	}
	// The stored bytes must round-trip to the identical result struct.
	for _, pt := range pts {
		body, _, ok := st.Get(pt.Key())
		if !ok {
			t.Fatalf("no store entry for %s", pt.Label)
		}
		var r experiments.PointResult
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		re, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if string(re) != string(body) {
			t.Error("PointResult JSON is not round-trip stable")
		}
	}
}

// TestBadShardFailsJobAfterMaxAttempts: a point no executor can run
// exhausts its attempts and fails the job instead of spinning forever.
func TestBadShardFailsJobAfterMaxAttempts(t *testing.T) {
	coord := NewCoordinator(testConfig(noStore))
	defer coord.Close()
	bad := []experiments.Point{{Family: "no-such-family", Label: "bad"}}
	_, err := coord.RunPoints(context.Background(), bad, nil)
	if err == nil {
		t.Fatal("bad shard did not fail the job")
	}
	if st := coord.Stats(); st.Failed != 1 {
		t.Errorf("failed = %d, want 1", st.Failed)
	}
}

// TestRunPointsCancellation: cancelling the job context returns
// promptly with the context error.
func TestRunPointsCancellation(t *testing.T) {
	coord := NewCoordinator(testConfig(noStore))
	defer coord.Close()
	// No workers and a paused local fallback window: cancel immediately.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := coord.RunPoints(ctx, quickPoints(2), nil)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// fig8Points is a scaled-down fig8-class sweep: the full lock-latency
// grid (3 lock kinds x 3 protocols x 3 sizes), warm-forked like the
// two-phase sweeps workers still receive, with iteration counts small
// enough for a test.
func fig8Points() []experiments.Point {
	var pts []experiments.Point
	for kind := 0; kind < 3; kind++ {
		for pr := 0; pr < 3; pr++ {
			for _, procs := range []int{1, 2, 4} {
				pts = append(pts, experiments.Point{
					Family: experiments.FamilyLock, Kind: kind,
					Protocol: proto.Protocol(pr), Procs: procs,
					Iterations: 192, WarmFork: true,
					Label: fmt.Sprintf("fig8/k%d-p%d-n%d", kind, pr, procs),
				})
			}
		}
	}
	return pts
}

// fig11Points is a scaled-down fig11-class sweep: the barrier-latency
// grid (3 barrier kinds x 3 protocols x 3 sizes), warm-forked.
func fig11Points() []experiments.Point {
	var pts []experiments.Point
	for kind := 0; kind < 3; kind++ {
		for pr := 0; pr < 3; pr++ {
			for _, procs := range []int{1, 2, 4} {
				pts = append(pts, experiments.Point{
					Family: experiments.FamilyBarrier, Kind: kind,
					Protocol: proto.Protocol(pr), Procs: procs,
					Iterations: 60, WarmFork: true,
					Label: fmt.Sprintf("fig11/k%d-p%d-n%d", kind, pr, procs),
				})
			}
		}
	}
	return pts
}

// leaseOne polls until the coordinator leases a shard to the worker.
func leaseOne(t *testing.T, coord *Coordinator, worker string) Shard {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		lease, known := coord.poll(worker)
		if !known {
			t.Fatalf("poll: worker %s unknown", worker)
		}
		if lease != nil {
			return *lease
		}
	}
	t.Fatalf("no shard leased to %s", worker)
	return Shard{}
}

// resultOf simulates a leased shard the way a worker would.
func resultOf(t *testing.T, s Shard) *experiments.PointResult {
	t.Helper()
	r, err := experiments.RunPointForked(context.Background(), s.Point, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &r
}

// runAsync starts RunPoints and returns a function that waits for it.
func runAsync(t *testing.T, coord *Coordinator, ctx context.Context, pts []experiments.Point, onDone func(int, experiments.PointResult)) (wait func() ([]experiments.PointResult, error)) {
	t.Helper()
	type outcome struct {
		res []experiments.PointResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		res, err := coord.RunPoints(ctx, pts, onDone)
		ch <- outcome{res, err}
	}()
	return func() ([]experiments.PointResult, error) {
		t.Helper()
		select {
		case o := <-ch:
			return o.res, o.err
		case <-time.After(20 * time.Second):
			t.Fatal("job did not finish")
			return nil, nil
		}
	}
}

// manualClock is the coordinator clock of the tests that drive timeouts
// themselves.
type manualClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// newManualCoordinator builds a coordinator on a manual clock with no
// sweep goroutine: the test advances time and calls reapDead itself.
func newManualCoordinator(cfg Config) (*Coordinator, *manualClock) {
	clk := &manualClock{t: time.Unix(1_000_000, 0)}
	c := newCoordinator(cfg)
	c.now = clk.Now
	return c, clk
}

// TestCompletionCarriesNextLease pins the lease-queue contract: after
// one poll, every completion response hands the slot its next shard, so
// a job of n points costs one poll and n completions, and the response
// to the last completion is empty.
func TestCompletionCarriesNextLease(t *testing.T) {
	pts := quickPoints(5)
	want := baseline(t, pts)
	coord := NewCoordinator(testConfig(noStore))
	defer coord.Close()
	coord.register("w")
	wait := runAsync(t, coord, context.Background(), pts, nil)

	lease := leaseOne(t, coord, "w")
	completions := 0
	for next := &lease; next != nil; completions++ {
		var err error
		if next, err = coord.complete(CompleteRequest{Worker: "w", Shard: next.ID, Result: resultOf(t, *next)}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("results differ from baseline")
	}
	if completions != len(pts) {
		t.Errorf("%d completions drained the job, want %d", completions, len(pts))
	}
	if st := coord.Stats(); st.Dispatched != uint64(len(pts)) || st.Batches != st.Dispatched || st.Stolen != 0 {
		t.Errorf("stats = %+v, want %d leases", st, len(pts))
	}
}

// TestDuplicateCompletionIsNoOp: a worker presumed dead has its
// leases requeued, yet its late results still count — whether the shard
// is by then running on another worker or still waiting in the queue —
// and whoever delivers second is a counted no-op: once in merge order,
// once in the store write-through, once in the completion counters.
func TestDuplicateCompletionIsNoOp(t *testing.T) {
	pts := quickPoints(2)
	want := baseline(t, pts)
	cache := newMemCache()
	cfg := testConfig(cache.durable())
	coord, clk := newManualCoordinator(cfg)
	defer coord.Close()
	coord.register("orig")
	coord.register("other")
	wait := runAsync(t, coord, context.Background(), pts, nil)

	held := []Shard{leaseOne(t, coord, "orig"), leaseOne(t, coord, "orig")}
	// orig goes silent past the timeout; other stays alive.
	clk.advance(cfg.HeartbeatTimeout + time.Millisecond)
	if !coord.heartbeat("other") {
		t.Fatal("heartbeat: other unknown")
	}
	coord.reapDead()
	if st := coord.Stats(); st.Reassigned != 2 || st.WorkersLive != 1 {
		t.Fatalf("after the timeout: %+v, want 2 shards reassigned and 1 live worker", st)
	}
	clk.advance(cfg.RetryBackoff)
	rerun := leaseOne(t, coord, "other")
	queued := held[0]
	if queued.ID == rerun.ID {
		queued = held[1]
	}

	complete := func(worker string, s Shard) {
		t.Helper()
		if _, err := coord.complete(CompleteRequest{Worker: worker, Shard: s.ID, Result: resultOf(t, s)}); err != nil {
			t.Fatal(err)
		}
	}
	complete("orig", rerun)  // late, for a shard now leased to other: accepted
	complete("other", rerun) // other finishes it too: the duplicate
	complete("orig", queued) // late, for a shard still in the queue: accepted

	got, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("late-completed sweep differs from baseline")
	}
	st := coord.Stats()
	if st.Completed != uint64(len(pts)) {
		t.Errorf("completed = %d, want %d (duplicate must not double-count)", st.Completed, len(pts))
	}
	if st.DupCompletes != 1 {
		t.Errorf("dup completes = %d, want 1", st.DupCompletes)
	}
	if n := cache.putCount(); n != len(pts) {
		t.Errorf("store write-throughs = %d, want %d (duplicate must not rewrite)", n, len(pts))
	}
}

// TestMalformedCompletionKeepsShardLeased: a completion body carrying
// neither result nor error is refused with 400 before any state
// changes, so the shard stays leased and the job still completes when
// the well-formed result arrives.
func TestMalformedCompletionKeepsShardLeased(t *testing.T) {
	pts := quickPoints(1)
	want := baseline(t, pts)
	coord := NewCoordinator(testConfig(noStore))
	defer coord.Close()
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	coord.register("w")
	wait := runAsync(t, coord, context.Background(), pts, nil)
	lease := leaseOne(t, coord, "w")

	post := func(req CompleteRequest) int {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/fleet/complete", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(CompleteRequest{Worker: "w", Shard: lease.ID}); code != http.StatusBadRequest {
		t.Fatalf("malformed completion HTTP %d, want 400", code)
	}
	if code := post(CompleteRequest{Worker: "w", Shard: lease.ID, Result: resultOf(t, lease)}); code != http.StatusOK {
		t.Fatalf("well-formed completion HTTP %d, want 200", code)
	}
	got, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("results differ from baseline")
	}
	if st := coord.Stats(); st.Completed != 1 || st.DupCompletes != 0 {
		t.Errorf("stats = %+v, want the shard completed once and no duplicate", st)
	}
}

// faultTransport is a worker's view of a bad network: every request is
// delayed, and the first failCompletes completion posts fail outright.
type faultTransport struct {
	delay         time.Duration
	failCompletes atomic.Int32
	completed     atomic.Int32 // completion posts that got through
}

func (f *faultTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	select {
	case <-time.After(f.delay):
	case <-r.Context().Done():
		return nil, r.Context().Err()
	}
	isComplete := strings.HasSuffix(r.URL.Path, "/complete")
	if isComplete && f.failCompletes.Add(-1) >= 0 {
		return nil, errors.New("injected network failure")
	}
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil && isComplete {
		f.completed.Add(1)
	}
	return resp, err
}

// TestWorkerRetriesCompletionUntilDelivered: a worker whose completion
// posts keep failing must keep trying. Its heartbeat goes on reporting
// it alive, so a result it gave up on would leave the shard leased
// forever — never requeued, the job never finished.
func TestWorkerRetriesCompletionUntilDelivered(t *testing.T) {
	pts := quickPoints(3)
	want := baseline(t, pts)
	coord := NewCoordinator(testConfig(noStore))
	defer coord.Close()
	net := &faultTransport{}
	net.failCompletes.Store(3)
	startFleet(t, coord, []WorkerConfig{{ID: "flaky", Client: &http.Client{Transport: net}}})
	got, err := runAsync(t, coord, context.Background(), pts, nil)()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("results differ from baseline")
	}
	if st := coord.Stats(); st.Dispatched != uint64(len(pts)) || st.Reassigned != 0 || st.DupCompletes != 0 {
		t.Errorf("stats = %+v, want every shard leased and delivered exactly once", st)
	}
}

// TestSlowWorkerSelfBalances: nothing is leased ahead of execution, so
// a worker behind a slow link (20 ms per request) simply comes back for
// work less often than a fast one. The job is byte-identical and the
// fast worker completes strictly more of it.
func TestSlowWorkerSelfBalances(t *testing.T) {
	pts := quickPoints(24)
	want := baseline(t, pts)
	coord := NewCoordinator(testConfig(noStore))
	defer coord.Close()
	slow, fast := &faultTransport{delay: 20 * time.Millisecond}, &faultTransport{}
	startFleet(t, coord, []WorkerConfig{
		{ID: "slow", Client: &http.Client{Transport: slow}},
		{ID: "fast", Client: &http.Client{Transport: fast}},
	})
	got, err := runAsync(t, coord, context.Background(), pts, nil)()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("heterogeneous-fleet sweep differs from single-process baseline")
	}
	ns, nf := slow.completed.Load(), fast.completed.Load()
	if nf <= ns {
		t.Errorf("fast worker completed %d shards, slow %d: want strictly more on the fast one", nf, ns)
	}
	if st := coord.Stats(); st.Dispatched != uint64(len(pts)) || st.DupCompletes != 0 {
		t.Errorf("stats = %+v, want %d leases and no duplicate", st, len(pts))
	}
}

// TestOnDoneObservesEveryComputedShard: progress callbacks fire once
// per fresh shard with the final result.
func TestOnDoneObservesEveryComputedShard(t *testing.T) {
	pts := quickPoints(5)
	coord := NewCoordinator(testConfig(noStore))
	defer coord.Close()
	var mu sync.Mutex
	seen := make(map[int]bool)
	_, err := coord.RunPoints(context.Background(), pts, func(i int, r experiments.PointResult) {
		mu.Lock()
		seen[i] = true
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(pts) {
		t.Errorf("onDone saw %d shards, want %d", len(seen), len(pts))
	}
}

// TestOnDoneObservesCacheAnsweredPoints: a point the memo's durable
// layer or its memory answers never becomes a shard, but the caller's progress and cycle accounting
// must still see it — once, with its result, and outside the
// coordinator's lock (the callback below takes it).
func TestOnDoneObservesCacheAnsweredPoints(t *testing.T) {
	pts := quickPoints(6)
	want := baseline(t, pts)
	cache := newMemCache().durable()
	before := NewCoordinator(testConfig(cache))
	defer before.Close()
	if _, err := before.RunPoints(context.Background(), pts[:3], nil); err != nil {
		t.Fatal(err)
	}
	coord := NewCoordinator(testConfig(cache))
	defer coord.Close()
	for _, batch := range []struct {
		name             string
		cached, memoized uint64 // cumulative durable-layer and memory answers after the batch
	}{
		{"half cached", 3, 0},
		{"all memoized", 3, 6},
	} {
		var mu sync.Mutex
		seen := make(map[int]int)
		var cycles uint64
		_, err := coord.RunPoints(context.Background(), pts, func(i int, r experiments.PointResult) {
			coord.Stats() // deadlocks if the coordinator calls back under its lock
			mu.Lock()
			defer mu.Unlock()
			seen[i]++
			cycles += r.SimCycles
			if !reflect.DeepEqual(r, want[i]) {
				t.Errorf("%s: onDone(%d) carries a result that differs from the baseline", batch.name, i)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		var wantCycles uint64
		for i := range pts {
			wantCycles += want[i].SimCycles
			if seen[i] != 1 {
				t.Errorf("%s: onDone saw point %d %d times, want once", batch.name, i, seen[i])
			}
		}
		if cycles != wantCycles {
			t.Errorf("%s: onDone saw %d simulated cycles, want %d", batch.name, cycles, wantCycles)
		}
		if st := coord.Stats(); st.CacheHits != batch.cached || st.Coalesced != batch.memoized {
			t.Errorf("%s: %d durable-layer hits and %d memo answers, want %d and %d", batch.name, st.CacheHits, st.Coalesced, batch.cached, batch.memoized)
		}
	}
}

// TestFiguresCrossTheFleetOnce is the exactly-once claim on the paper's
// own figures: 8-16 at quick scale ask for 120 points, 48 of them
// repeats (9/10, 12/13 and 15/16 project the same 32-processor runs,
// and 8/11/14's largest size repeats them). Through a fresh coordinator
// and two workers the 72 distinct ones are leased, once each, and the
// tables are the local pool's byte for byte.
func TestFiguresCrossTheFleetOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("real sweeps in -short mode")
	}
	render := func(o experiments.Options) string {
		var b strings.Builder
		for n := 8; n <= 16; n++ {
			e, ok := experiments.Lookup(fmt.Sprintf("fig%d", n))
			if !ok {
				t.Fatalf("fig%d is not in the catalog", n)
			}
			for _, tbl := range e.Tables(o) {
				fmt.Fprintln(&b, tbl)
			}
		}
		return b.String()
	}
	local := experiments.Quick()
	local.Runner = runner.New(2)
	local.Memo = experiments.NewPointMemo(experiments.PointStore(nil))
	want := render(local)

	coord := NewCoordinator(testConfig(noStore))
	defer coord.Close()
	startWorkers(t, coord, 2)
	points := 0
	viaFleet := experiments.Quick()
	viaFleet.Dispatch = func(pts []experiments.Point) []experiments.PointResult {
		points += len(pts)
		res, err := coord.RunPoints(context.Background(), pts, nil)
		if err != nil {
			t.Error(err)
			return make([]experiments.PointResult, len(pts))
		}
		return res
	}
	if got := render(viaFleet); got != want {
		t.Error("figures 8-16 through the fleet differ from the local pool's")
	}
	st := coord.Stats()
	if points != 120 || st.Dispatched != 72 || st.Completed != 72 || st.Coalesced != 48 || st.DupCompletes != 0 {
		t.Errorf("%d points: %+v; want 120 points as 72 leases, 72 completions, 48 coalesced, no duplicate", points, st)
	}
}

// TestConcurrentJobsLeaseEachKeyOnce: two RunPoints calls over the same
// points, racing each other through real workers, lease every key once
// between them and both return the baseline.
func TestConcurrentJobsLeaseEachKeyOnce(t *testing.T) {
	pts := quickPoints(12)
	want := baseline(t, pts)
	coord := NewCoordinator(testConfig(noStore))
	defer coord.Close()
	startWorkers(t, coord, 2)
	waits := []func() ([]experiments.PointResult, error){
		runAsync(t, coord, context.Background(), pts, nil),
		runAsync(t, coord, context.Background(), pts, nil),
	}
	for i, wait := range waits {
		got, err := wait()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("job %d differs from the baseline", i)
		}
	}
	if st := coord.Stats(); st.Dispatched != 12 || st.Completed != 12 || st.Coalesced != 12 || st.DupCompletes != 0 {
		t.Errorf("stats = %+v, want 12 leases and 12 coalesced points for 24 requested", st)
	}
}

// attachTwo submits pts as a first job, waits for its shards, then
// submits them again as a second job that can only attach. The anchor
// worker never polls: it keeps the local fallback out.
func attachTwo(t *testing.T, coord *Coordinator, firstCtx context.Context, pts []experiments.Point) (first, second func() ([]experiments.PointResult, error)) {
	t.Helper()
	coord.register("anchor")
	coord.register("w")
	attached := func() (n int) {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		for _, s := range coord.inflight {
			n += len(s.slots)
		}
		return n
	}
	first = runAsync(t, coord, firstCtx, pts, nil)
	for attached() < len(pts) {
		runtime.Gosched()
	}
	second = runAsync(t, coord, context.Background(), pts, nil)
	for attached() < 2*len(pts) {
		runtime.Gosched()
	}
	return first, second
}

// TestCancelledOwnerHandsItsShardsOn: the job whose submission created
// the shards is cancelled while one is leased and one still pending; the
// job attached to them finishes all the same, with the baseline's bytes
// and no second lease of the shard that was running.
func TestCancelledOwnerHandsItsShardsOn(t *testing.T) {
	pts := quickPoints(2)
	want := baseline(t, pts)
	coord, _ := newManualCoordinator(testConfig(noStore))
	defer coord.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	first, second := attachTwo(t, coord, ctx, pts)
	running := leaseOne(t, coord, "w")
	cancel()
	if _, err := first(); err != context.Canceled {
		t.Fatalf("cancelled job: err = %v, want context.Canceled", err)
	}
	next, err := coord.complete(CompleteRequest{Worker: "w", Shard: running.ID, Result: resultOf(t, running)})
	if err != nil || next == nil {
		t.Fatalf("completing the running shard: next lease %v, err %v; want the pending shard", next, err)
	}
	if _, err := coord.complete(CompleteRequest{Worker: "w", Shard: next.ID, Result: resultOf(t, *next)}); err != nil {
		t.Fatal(err)
	}
	got, err := second()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("the attached job's results differ from the baseline")
	}
	if st := coord.Stats(); st.Dispatched != 2 || st.Completed != 2 || st.DupCompletes != 0 {
		t.Errorf("stats = %+v, want each shard leased and completed once", st)
	}
}

// TestExhaustedShardFailsEveryAttachedJob: a shard that runs out of
// attempts fails the job that created it and the job attached to it,
// and leaves nothing in the memo: the next submission leases it again.
func TestExhaustedShardFailsEveryAttachedJob(t *testing.T) {
	pts := quickPoints(1)
	cfg := testConfig(noStore)
	cfg.MaxAttempts = 2
	coord, clk := newManualCoordinator(cfg)
	defer coord.Close()
	first, second := attachTwo(t, coord, context.Background(), pts)
	for attempt := 0; attempt < cfg.MaxAttempts; attempt++ {
		clk.advance(8 * cfg.RetryBackoff)
		lease := leaseOne(t, coord, "w")
		if _, err := coord.complete(CompleteRequest{Worker: "w", Shard: lease.ID, Error: "injected"}); err != nil {
			t.Fatal(err)
		}
	}
	for i, wait := range []func() ([]experiments.PointResult, error){first, second} {
		if _, err := wait(); err == nil || !strings.Contains(err.Error(), "injected") {
			t.Errorf("job %d: err = %v, want the shard's failure", i, err)
		}
	}
	if st := coord.Stats(); st.Failed != 1 || coord.cfg.Memo.Checkpoints() != 0 {
		t.Errorf("stats = %+v, memo holds %d points; want one failed shard and an empty memo", st, coord.cfg.Memo.Checkpoints())
	}
	third := runAsync(t, coord, context.Background(), pts, nil)
	lease := leaseOne(t, coord, "w")
	if _, err := coord.complete(CompleteRequest{Worker: "w", Shard: lease.ID, Result: resultOf(t, lease)}); err != nil {
		t.Fatal(err)
	}
	if got, err := third(); err != nil || !reflect.DeepEqual(got, baseline(t, pts)) {
		t.Errorf("resubmission after the failure: err %v, or results differ from the baseline", err)
	}
}
