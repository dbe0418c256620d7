package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"coherencesim/internal/experiments"
	"coherencesim/internal/proto"
)

// quickPoints builds a small but real batch of lock points (the
// simulations are tiny: 64 total acquires each).
func quickPoints(n int) []experiments.Point {
	var pts []experiments.Point
	for i := 0; i < n; i++ {
		pts = append(pts, experiments.Point{
			Family:     experiments.FamilyLock,
			Kind:       i % 3, // Ticket, MCS, UpdateConsciousMCS
			Protocol:   proto.Protocol(i % 3),
			Procs:      1 + i%4,
			Iterations: 64,
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
		r, err := experiments.RunPoint(context.Background(), pt)
		if err != nil {
			t.Fatalf("RunPoint(%v): %v", pt, err)
		}
		out[i] = r
	}
	return out
}

// memCache is an in-memory ShardCache for tests.
type memCache struct {
	mu   sync.Mutex
	m    map[string][]byte
	puts int
}

func newMemCache() *memCache { return &memCache{m: make(map[string][]byte)} }

func (c *memCache) putCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.puts
}

func (c *memCache) Get(key string) ([]byte, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.m[key]
	return b, "done", ok
}

func (c *memCache) Put(key, status string, body []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = append([]byte(nil), body...)
	c.puts++
	return nil
}

func testConfig(cache ShardCache) Config {
	return Config{
		HeartbeatTimeout: 300 * time.Millisecond,
		PollWait:         50 * time.Millisecond,
		RetryBackoff:     10 * time.Millisecond,
		Cache:            cache,
	}
}

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
// identity guarantee: any worker count assembles the exact results a
// single process computes.
func TestRunPointsMatchesBaselineAcrossWorkerCounts(t *testing.T) {
	pts := quickPoints(8)
	want := baseline(t, pts)
	for _, workers := range []int{1, 2, 4} {
		coord := NewCoordinator(testConfig(nil))
		startWorkers(t, coord, workers)
		got, err := coord.RunPoints(context.Background(), pts, nil)
		coord.Close()
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d workers: results differ from single-process baseline", workers)
		}
	}
}

// TestLocalFallbackWithZeroWorkers: a coordinator with no fleet still
// completes every job by executing shards itself.
func TestLocalFallbackWithZeroWorkers(t *testing.T) {
	pts := quickPoints(4)
	want := baseline(t, pts)
	coord := NewCoordinator(testConfig(nil))
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
	coord := NewCoordinator(testConfig(nil))
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

// TestShardCacheShortCircuits: a second identical batch is answered
// entirely from the shard cache, dispatching nothing.
func TestShardCacheShortCircuits(t *testing.T) {
	pts := quickPoints(4)
	cache := newMemCache()
	coord := NewCoordinator(testConfig(cache))
	defer coord.Close()
	first, err := coord.RunPoints(context.Background(), pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	completedAfterFirst := coord.Stats().Completed
	second, err := coord.RunPoints(context.Background(), pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cached results differ from computed results")
	}
	st := coord.Stats()
	if st.Completed != completedAfterFirst {
		t.Errorf("second batch computed %d shards, want 0", st.Completed-completedAfterFirst)
	}
	if st.CacheHits != uint64(len(pts)) {
		t.Errorf("cache hits = %d, want %d", st.CacheHits, len(pts))
	}
	// The cached bytes must round-trip to the identical result struct.
	for _, pt := range pts {
		body, _, ok := cache.Get(pt.Key())
		if !ok {
			t.Fatalf("no cache entry for %s", pt.Label)
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
	coord := NewCoordinator(testConfig(nil))
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
	coord := NewCoordinator(testConfig(nil))
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
// service's warm_fork jobs, with iteration counts small enough for a
// test.
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

// TestStealInterleavingByteIdentity pins the tentpole guarantee: a
// heterogeneous fleet (one slow worker throttled by fault injection,
// the rest fast) forces the fast workers to steal the slow worker's
// tail, and the assembled fig8/fig11 sweeps must still match the
// single-process baseline exactly, result for result. A stolen shard is
// simulated once: workers complete shard by shard and each response
// carries their revocations, so every victim drops its stolen tail
// unexecuted and no completion arrives twice.
func TestStealInterleavingByteIdentity(t *testing.T) {
	for _, fig := range []struct {
		name string
		pts  []experiments.Point
	}{{"fig8", fig8Points()}, {"fig11", fig11Points()}} {
		want := baseline(t, fig.pts)
		for _, workers := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/%dw", fig.name, workers), func(t *testing.T) {
				coord := NewCoordinator(testConfig(nil))
				defer coord.Close()
				cfgs := make([]WorkerConfig, workers)
				cfgs[0] = WorkerConfig{ID: "slow", Batch: 16, ShardDelay: 25 * time.Millisecond}
				for i := 1; i < workers; i++ {
					cfgs[i] = WorkerConfig{ID: fmt.Sprintf("fast%d", i), Batch: 8}
				}
				// The slow worker attaches alone and must hold its batch
				// before any fast worker polls: whoever polls first gets
				// the head of the sweep, and fast workers that win that
				// race can finish it without the slow one ever holding a
				// tail to steal.
				fleet, _ := startFleet(t, coord, cfgs[:1])
				var (
					got  []experiments.PointResult
					err  error
					done = make(chan struct{})
				)
				go func() {
					defer close(done)
					got, err = coord.RunPoints(context.Background(), fig.pts, nil)
				}()
				for deadline := time.Now().Add(5 * time.Second); coord.Stats().Batches == 0; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("the slow worker never leased a batch")
					}
				}
				fast, _ := startFleet(t, coord, cfgs[1:])
				fleet = append(fleet, fast...)
				<-done
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("stolen-shard sweep differs from single-process baseline")
				}
				st := coord.Stats()
				if st.Stolen == 0 {
					t.Errorf("no shards stolen from the throttled worker (stats %+v)", st)
				}
				if st.DupCompletes != 0 {
					t.Errorf("%d of %d stolen shards were completed twice", st.DupCompletes, st.Stolen)
				}
				// A victim walks past its stolen tail once its current
				// shard is done, which may be just after the job finished.
				dropped := func() (n uint64) {
					for _, w := range fleet {
						w.mu.Lock()
						n += uint64(w.dropped)
						w.mu.Unlock()
					}
					return n
				}
				for deadline := time.Now().Add(5 * time.Second); dropped() != st.Stolen; time.Sleep(5 * time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("workers dropped %d shards as revoked, want all %d stolen", dropped(), st.Stolen)
					}
				}
			})
		}
	}
}

// TestDuplicateCompletionIsNoOp is the forced double-complete
// regression: a shard completed by a thief and then again by its
// original owner must count once — once in merge order, once in the
// store write-through, once in the completion counters — with the
// second delivery recorded as a duplicate, and the owner must receive a
// revocation for the shard it lost.
func TestDuplicateCompletionIsNoOp(t *testing.T) {
	pts := quickPoints(2)
	want := baseline(t, pts)
	cache := newMemCache()
	coord := NewCoordinator(testConfig(cache))
	defer coord.Close()
	coord.register("orig")
	coord.register("thief")

	done := make(chan struct{})
	var got []experiments.PointResult
	var runErr error
	go func() {
		defer close(done)
		got, runErr = coord.RunPoints(context.Background(), pts, nil)
	}()

	// Lease both shards to the original owner.
	var shards []Shard
	deadline := time.Now().Add(5 * time.Second)
	for len(shards) < len(pts) {
		if time.Now().After(deadline) {
			t.Fatalf("leased only %d/%d shards", len(shards), len(pts))
		}
		batch, _, ok := coord.poll("orig", len(pts))
		if !ok {
			t.Fatal("poll: worker unknown")
		}
		shards = append(shards, batch...)
	}
	results := make([]experiments.PointResult, len(shards))
	for i, s := range shards {
		r, err := experiments.RunPoint(context.Background(), s.Point)
		if err != nil {
			t.Fatal(err)
		}
		results[i] = r
	}

	// The thief (which "stole" shard 0 and raced ahead) completes it
	// first...
	if _, err := coord.complete(CompleteRequest{Worker: "thief", Results: []ShardResult{
		{Shard: shards[0].ID, Result: &results[0]},
	}}); err != nil {
		t.Fatal(err)
	}
	// ...so the owner's next heartbeat must revoke that shard.
	revoked, known := coord.heartbeat(HeartbeatRequest{Worker: "orig", Queued: 1})
	if !known {
		t.Fatal("heartbeat: owner unknown")
	}
	if len(revoked) != 1 || revoked[0] != shards[0].ID {
		t.Errorf("owner revocations = %v, want [%s]", revoked, shards[0].ID)
	}
	// The owner finished its whole batch before noticing and completes
	// both shards anyway: shard 0 is a duplicate, shard 1 is fresh.
	if _, err := coord.complete(CompleteRequest{Worker: "orig", Results: []ShardResult{
		{Shard: shards[0].ID, Result: &results[0]},
		{Shard: shards[1].ID, Result: &results[1]},
	}}); err != nil {
		t.Fatal(err)
	}

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("job did not finish")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("double-completed sweep differs from baseline")
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

// TestPollGroupsWarmForkBatches: with two warm-forked points
// interleaved A,B,A,B,... a poll batch must contain only one group, so
// the leased worker simulates exactly one point per batch and answers
// the rest from its memo.
func TestPollGroupsWarmForkBatches(t *testing.T) {
	var pts []experiments.Point
	for i := 0; i < 8; i++ {
		pts = append(pts, experiments.Point{
			Family: experiments.FamilyLock, Kind: i % 2,
			Procs: 2, Iterations: 64, WarmFork: true,
			Label: fmt.Sprintf("grp/%d", i),
		})
	}
	coord := NewCoordinator(testConfig(nil))
	defer coord.Close()
	coord.register("w")

	done := make(chan struct{})
	var runErr error
	go func() {
		defer close(done)
		_, runErr = coord.RunPoints(context.Background(), pts, nil)
	}()

	deadline := time.Now().Add(5 * time.Second)
	leased := 0
	for leased < len(pts) {
		if time.Now().After(deadline) {
			t.Fatalf("leased only %d/%d shards", leased, len(pts))
		}
		batch, _, ok := coord.poll("w", 4)
		if !ok {
			t.Fatal("poll: worker unknown")
		}
		if len(batch) == 0 {
			continue
		}
		for _, s := range batch[1:] {
			if s.Key != batch[0].Key {
				t.Errorf("batch mixes warm groups: %s vs %s", s.Point.Label, batch[0].Point.Label)
			}
		}
		var results []ShardResult
		for _, s := range batch {
			r, err := experiments.RunPoint(context.Background(), s.Point)
			if err != nil {
				t.Fatal(err)
			}
			rc := r
			results = append(results, ShardResult{Shard: s.ID, Result: &rc})
		}
		if _, err := coord.complete(CompleteRequest{Worker: "w", Results: results}); err != nil {
			t.Fatal(err)
		}
		leased += len(batch)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("job did not finish")
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	if st := coord.Stats(); st.Batches != 2 {
		t.Errorf("batches = %d, want 2 (4 shards per round-trip)", st.Batches)
	}
}

// TestPerPointDispatchStillIdentical: batch size 1 — one shard per
// round-trip — remains a supported configuration and produces the same
// bytes.
func TestPerPointDispatchStillIdentical(t *testing.T) {
	pts := fig11Points()[:9]
	want := baseline(t, pts)
	coord := NewCoordinator(Config{
		HeartbeatTimeout: 300 * time.Millisecond,
		PollWait:         50 * time.Millisecond,
		RetryBackoff:     10 * time.Millisecond,
		Batch:            1,
		StealThreshold:   -1,
	})
	defer coord.Close()
	startFleet(t, coord, []WorkerConfig{{ID: "solo", Batch: 1}})
	got, err := coord.RunPoints(context.Background(), pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("per-point dispatch differs from baseline")
	}
	if st := coord.Stats(); st.Batches != uint64(len(pts)) {
		t.Errorf("batches = %d, want %d (batch cap 1 means one shard per poll)", st.Batches, len(pts))
	}
}

// TestOnDoneObservesEveryComputedShard: progress callbacks fire once
// per fresh shard with the final result.
func TestOnDoneObservesEveryComputedShard(t *testing.T) {
	pts := quickPoints(5)
	coord := NewCoordinator(testConfig(nil))
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
