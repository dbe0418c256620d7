package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coherencesim/internal/experiments"
	"coherencesim/internal/fleet"
	"coherencesim/internal/runner"
	"coherencesim/internal/store"
)

// startService builds a service the test can shut down and rebuild
// mid-test (restart scenarios), unlike newTestServer's end-of-test
// cleanup.
func startService(t *testing.T, cfg Config, exec ExecFunc) (*httptest.Server, *Service, func()) {
	t.Helper()
	svc, err := newService(cfg, exec)
	if err != nil {
		t.Fatal(err)
	}
	svc.to(StateReady)
	ts := httptest.NewServer(svc.Handler())
	var once atomic.Bool
	stop := func() {
		if !once.CompareAndSwap(false, true) {
			return
		}
		ts.Close()
		svc.Scheduler().Close()
		svc.Coordinator().Close()
	}
	t.Cleanup(stop)
	return ts, svc, stop
}

func postJobTenant(t *testing.T, ts *httptest.Server, spec, tenant string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp
}

// TestDurableStoreSurvivesRestart is the store's reason to exist: a
// result computed before a crash is replayed byte-identically by the
// next process, without re-simulating.
func TestDurableStoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	var execs atomic.Int32
	ts1, _, stop1 := startService(t, Config{DataDir: dir}, stubExec(&execs, nil))

	resp, doc := postJob(t, ts1, `{"experiment":"fig8","scale":"quick"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit HTTP %d", resp.StatusCode)
	}
	first := pollDone(t, ts1, doc.ID)
	stop1() // "crash": the in-memory cache dies with the process

	ts2, svc2, _ := startService(t, Config{DataDir: dir}, stubExec(&execs, nil))
	resp2, err := http.Post(ts2.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"scale":"quick","experiment":"fig8"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp2.Body); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("post-restart resubmit = HTTP %d X-Cache %q, want 200/hit", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(first, buf.Bytes()) {
		t.Error("post-restart document differs from pre-restart bytes")
	}
	if execs.Load() != 1 {
		t.Errorf("simulation ran %d times across restart, want once", execs.Load())
	}
	if hits := svc2.Scheduler().Counters().StoreHits; hits != 1 {
		t.Errorf("store hits = %d, want 1", hits)
	}
}

// TestFailedJobsAreNotPersisted: a failure describes one submission,
// not the spec — after restart the same spec must execute again.
func TestFailedJobsAreNotPersisted(t *testing.T) {
	dir := t.TempDir()
	var execs atomic.Int32
	failing := func(ctx context.Context, spec JobSpec, simWorkers int, progress func(runner.Snapshot)) (*JobResult, error) {
		execs.Add(1)
		return nil, errors.New("transient backend failure")
	}
	pollTerminal := func(ts *httptest.Server, id string) string {
		deadline := time.Now().Add(10 * time.Second)
		for {
			_, body := getBody(t, ts.URL+"/v1/jobs/"+id)
			var st JobStatus
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			if isTerminal(st.Status) {
				return st.Status
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished", id)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	ts1, _, stop1 := startService(t, Config{DataDir: dir}, failing)
	resp, doc := postJob(t, ts1, `{"experiment":"fig8"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit HTTP %d", resp.StatusCode)
	}
	if st := pollTerminal(ts1, doc.ID); st != StatusFailed {
		t.Fatalf("job finished %s, want failed", st)
	}
	stop1()

	ts2, _, _ := startService(t, Config{DataDir: dir}, failing)
	resp2, doc2 := postJob(t, ts2, `{"experiment":"fig8"}`)
	if resp2.StatusCode != http.StatusAccepted || resp2.Header.Get("X-Cache") != "miss" {
		t.Fatalf("post-restart resubmit = HTTP %d X-Cache %q, want 202/miss", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	pollTerminal(ts2, doc2.ID)
	if execs.Load() != 2 {
		t.Errorf("failing spec executed %d times across restart, want 2", execs.Load())
	}
}

// TestTenantAdmissionQuota: one tenant saturating its in-flight quota
// is throttled with 429 + Retry-After while other tenants keep
// submitting.
func TestTenantAdmissionQuota(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	ts, svc, _ := startService(t, Config{Jobs: 1, QueueDepth: 8, TenantQuota: 1}, stubExec(nil, block))

	if resp := postJobTenant(t, ts, `{"experiment":"fig8"}`, "alice"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first alice submit HTTP %d", resp.StatusCode)
	}
	resp := postJobTenant(t, ts, `{"experiment":"fig11"}`, "alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota alice submit HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("quota 429 missing Retry-After")
	}
	if resp := postJobTenant(t, ts, `{"experiment":"fig11"}`, "bob"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("bob submit HTTP %d; another tenant's quota throttled him", resp.StatusCode)
	}
	// Re-submitting alice's own in-flight spec is dedup, not admission.
	if resp := postJobTenant(t, ts, `{"experiment":"fig8"}`, "alice"); resp.StatusCode != http.StatusAccepted {
		t.Errorf("dedup resubmit HTTP %d, want 202", resp.StatusCode)
	}
	if q := svc.Scheduler().Counters().QuotaHits; q != 1 {
		t.Errorf("quota rejections = %d, want 1", q)
	}
}

// TestPerTenantQuotaOverride: the per-tenant map beats the global
// default.
func TestPerTenantQuotaOverride(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	ts, _, _ := startService(t, Config{
		Jobs: 1, QueueDepth: 8,
		TenantQuota:  1,
		TenantQuotas: map[string]int{"batch": 2},
	}, stubExec(nil, block))

	if resp := postJobTenant(t, ts, `{"experiment":"fig8"}`, "batch"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch #1 HTTP %d", resp.StatusCode)
	}
	if resp := postJobTenant(t, ts, `{"experiment":"fig11"}`, "batch"); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("batch #2 HTTP %d; override not applied", resp.StatusCode)
	}
	if resp := postJobTenant(t, ts, `{"experiment":"fig14"}`, "batch"); resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("batch #3 HTTP %d, want 429", resp.StatusCode)
	}
}

// TestQuotaReleasedOnCompletion: finished jobs free admission slots.
func TestQuotaReleasedOnCompletion(t *testing.T) {
	ts, _, _ := startService(t, Config{Jobs: 1, TenantQuota: 1}, stubExec(nil, nil))
	_, doc := postJob(t, ts, `{"experiment":"fig8"}`) // default tenant ""
	pollDone(t, ts, doc.ID)
	if resp := postJobTenant(t, ts, `{"experiment":"fig11"}`, ""); resp.StatusCode != http.StatusAccepted {
		t.Errorf("submit after completion HTTP %d; quota slot not released", resp.StatusCode)
	}
}

// TestFleetExecutionByteIdentity runs real jobs twice — once purely
// in-process, once fanned across two fleet workers joined over HTTP —
// and requires the terminal job documents to be byte-identical.
func TestFleetExecutionByteIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("real sweep in -short mode")
	}
	// A sweep, the app kernels and a kind=run job: each is points.
	specs := []string{
		`{"experiment":"fig14","scale":"quick"}`,
		`{"experiment":"apps","scale":"quick"}`,
		`{"run":"lock","algo":"mcs","protocol":"CU","procs":8,"iterations":400,"breakdown":true}`,
	}

	tsA, _, stopA := startService(t, Config{SimWorkers: 4}, nil)
	var baseline [][]byte
	for _, spec := range specs {
		_, docA := postJob(t, tsA, spec)
		baseline = append(baseline, pollDone(t, tsA, docA.ID))
	}
	stopA()

	tsB, svcB, _ := startService(t, Config{SimWorkers: 4, HeartbeatTimeout: time.Second}, nil)
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		w := fleet.NewWorker(fleet.WorkerConfig{Coordinator: tsB.URL, ID: "itest-" + string(rune('a'+i))})
		go w.Run(ctx)
	}
	deadline := time.Now().Add(5 * time.Second)
	for svcB.Coordinator().LiveWorkers() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("fleet workers never registered")
		}
		time.Sleep(5 * time.Millisecond)
	}

	for i, spec := range specs {
		before := svcB.Coordinator().Stats().Completed
		_, docB := postJob(t, tsB, spec)
		if fanned := pollDone(t, tsB, docB.ID); !bytes.Equal(baseline[i], fanned) {
			t.Errorf("%s: fleet-executed document differs from in-process document", spec)
		}
		if svcB.Coordinator().Stats().Completed == before {
			t.Errorf("%s: coordinator completed no shards; the job did not use the fleet", spec)
		}
	}
}

// metricRow scrapes one unlabelled row of /metrics.
func metricRow(t *testing.T, ts *httptest.Server, name string) uint64 {
	t.Helper()
	_, body := getBody(t, ts.URL+"/metrics")
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return n
		}
	}
	t.Fatalf("/metrics has no %s row", name)
	return 0
}

// memoCounters scrapes the point-memo rows of /metrics.
func memoCounters(t *testing.T, ts *httptest.Server) (hits, misses, served, entries uint64) {
	t.Helper()
	return metricRow(t, ts, "coherenced_point_memo_hits_total"), metricRow(t, ts, "coherenced_point_memo_misses_total"),
		metricRow(t, ts, "coherenced_point_memo_served_cycles_total"), metricRow(t, ts, "coherenced_point_memo_entries")
}

// TestDaemonSharesPointsAcrossJobs: figures 8, 9 and 10 are projections
// of the same 27 simulations, and one daemon runs them once — whether
// the three jobs arrive one after another or together — while serving
// each job the document a fresh executor computes alone.
func TestDaemonSharesPointsAcrossJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("real sweeps in -short mode")
	}
	family := []string{"fig8", "fig9", "fig10"}
	body := func(name string) string {
		return `{"experiment":"` + name + `","scale":"quick","metrics_interval":5000,"breakdown":true}`
	}
	want := make(map[string][]byte)
	for _, name := range family {
		spec := canonical(t, JobSpec{Experiment: name, MetricsInterval: 5000, Breakdown: true})
		res, err := execute(context.Background(), spec, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[name], _ = json.Marshal(res)
	}
	checkDoc := func(name string, doc []byte) {
		t.Helper()
		var st JobStatus
		if err := json.Unmarshal(doc, &st); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(st.Result, want[name]) {
			t.Errorf("%s: the daemon's result differs from a fresh executor's", name)
		}
	}
	checkMemo := func(order string, ts *httptest.Server, svc *Service) {
		t.Helper()
		hits, misses, served, entries := memoCounters(t, ts)
		if misses != 27 || hits != 18 || entries != 27 || served == 0 {
			t.Errorf("%s: memo hits %d misses %d entries %d served cycles %d; want 18, 27, 27, > 0", order, hits, misses, entries, served)
		}
		if total := svc.Scheduler().Counters().SimCycles; served >= total {
			t.Errorf("%s: served cycles %d are not a share of the %d cycles served to jobs", order, served, total)
		}
	}

	ts, svc, stop := startService(t, Config{Jobs: 2, SimWorkers: 2}, nil)
	for _, name := range family {
		_, doc := postJob(t, ts, body(name))
		checkDoc(name, pollDone(t, ts, doc.ID))
	}
	checkMemo("sequential", ts, svc)
	sequentialCycles := svc.Scheduler().Counters().SimCycles
	stop()

	ts, svc, stop = startService(t, Config{Jobs: 2, SimWorkers: 2}, nil)
	ids := make(map[string]string)
	for _, name := range family {
		_, doc := postJob(t, ts, body(name))
		ids[name] = doc.ID
	}
	for _, name := range family {
		checkDoc(name, pollDone(t, ts, ids[name]))
	}
	checkMemo("concurrent", ts, svc)
	if got := svc.Scheduler().Counters().SimCycles; got != sequentialCycles {
		t.Errorf("cycles served to jobs: %d concurrently, %d sequentially", got, sequentialCycles)
	}
	stop()

	// A job cancelled mid-sweep leaves only whole results behind: the
	// same spec then completes, on what the cancelled one finished.
	ts, svc, _ = startService(t, Config{Jobs: 2, SimWorkers: 2}, nil)
	_, doc := postJob(t, ts, body("fig8"))
	waitRunning(t, svc.Scheduler(), 1)
	req, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+doc.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		if _, live := svc.Scheduler().Get(doc.ID); !live {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never left the in-flight set")
		}
	}
	_, again := postJob(t, ts, body("fig8"))
	checkDoc("fig8", pollDone(t, ts, again.ID))
	if _, misses, _, _ := memoCounters(t, ts); misses != 27 {
		t.Errorf("cancelled + repeated fig8 simulated %d points, want each of the 27 once", misses)
	}
}

// startFleet serves a coordinator on memo over HTTP and joins one worker
// of its own, named id, returning once the worker is live.
func startFleet(t *testing.T, ctx context.Context, memo *experiments.PointMemo, id string) *fleet.Coordinator {
	t.Helper()
	coord := fleet.NewCoordinator(fleet.Config{Memo: memo, HeartbeatTimeout: time.Second})
	t.Cleanup(coord.Close)
	mux := http.NewServeMux()
	coord.Mount(mux)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	go fleet.NewWorker(fleet.WorkerConfig{Coordinator: ts.URL, ID: id}).Run(ctx)
	for deadline := time.Now().Add(5 * time.Second); coord.LiveWorkers() < 1; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("fleet worker never registered")
		}
	}
	return coord
}

// TestFleetProgressNamesPoints: every progress snapshot of a sweep on
// the fleet path names the point it counts, as the local path's do.
func TestFleetProgressNamesPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("real sweeps in -short mode")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	coord := startFleet(t, ctx, experiments.NewPointMemo(experiments.PointStore(nil)), "itest-labels")

	labels := func(exec ExecFunc) []string {
		t.Helper()
		var mu sync.Mutex
		var got []string
		if _, err := exec(ctx, canonical(t, JobSpec{Experiment: "fig9"}), 2, func(sn runner.Snapshot) {
			mu.Lock()
			got = append(got, sn.Label)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	points := make(map[string]bool)
	for _, l := range labels(BatchExecutor()) {
		points[l] = true
	}
	fanned := labels(NewFleetExec(nil, coord))
	if len(fanned) == 0 || coord.Stats().Completed == 0 {
		t.Fatalf("the fleet path reported %d snapshots over %d leased points", len(fanned), coord.Stats().Completed)
	}
	for i, l := range fanned {
		if l == "" || !points[l] {
			t.Errorf("fleet progress snapshot %d names %q, not one of the sweep's %d points", i, l, len(points))
		}
	}
}

// TestFleetPathCountsCacheAnsweredPoints: a point the coordinator
// answers without leasing it — from its memo, or after a restart from
// the memo's store — is served work like any other: the fleet path's
// last progress snapshot must count it, points and cycles, as the local
// path's does. A point the store answered was not simulated, so the
// restarted memo counts no miss for it.
func TestFleetPathCountsCacheAnsweredPoints(t *testing.T) {
	if testing.Short() {
		t.Skip("real sweeps in -short mode")
	}
	st, err := store.Open(t.TempDir(), 1<<24)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A coordinator on the shared store with one worker of its own.
	storeFleet := func() (*fleet.Coordinator, *experiments.PointMemo) {
		memo := experiments.NewPointMemo(experiments.PointStore(st))
		return startFleet(t, ctx, memo, "itest-cache"), memo
	}

	last := func(exec ExecFunc, name string) runner.Snapshot {
		t.Helper()
		var mu sync.Mutex
		var last runner.Snapshot
		if _, err := exec(ctx, canonical(t, JobSpec{Experiment: name}), 2, func(sn runner.Snapshot) {
			mu.Lock()
			last = sn
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		return last
	}
	local := last(BatchExecutor(), "fig9")
	coord, _ := storeFleet()
	restarted, restartedMemo := storeFleet()
	for _, run := range []struct {
		coord *fleet.Coordinator
		name  string
	}{{coord, "fig9"}, {coord, "fig10"}, {restarted, "fig10"}} { // fig10 asks for fig9's points again
		got := last(NewFleetExec(nil, run.coord), run.name)
		if got.JobsDone != local.JobsDone || got.JobsTotal != local.JobsTotal || got.SimCycles != local.SimCycles {
			t.Errorf("%s on the fleet path ended at %d/%d points, %d cycles; the local path at %d/%d, %d",
				run.name, got.JobsDone, got.JobsTotal, got.SimCycles, local.JobsDone, local.JobsTotal, local.SimCycles)
		}
	}
	if stats := coord.Stats(); stats.Completed != 9 || stats.Coalesced != 9 || stats.CacheHits != 0 {
		t.Errorf("workers answered %d points, the memo %d, the store %d; want 9, 9 and 0", stats.Completed, stats.Coalesced, stats.CacheHits)
	}
	if stats := restarted.Stats(); stats.Completed != 0 || stats.CacheHits != 9 {
		t.Errorf("after the restart workers answered %d points and the store %d, want 0 and 9", stats.Completed, stats.CacheHits)
	}
	if ms := restartedMemo.Stats(); ms.Builds != 0 || ms.Loads != 9 {
		t.Errorf("after the restart the memo counts %d points simulated and %d loaded, want 0 and 9", ms.Builds, ms.Loads)
	}
}
