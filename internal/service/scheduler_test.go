package service

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coherencesim/internal/runner"
	"coherencesim/internal/store"
)

// stubExec returns an ExecFunc that counts executions and, when block
// is non-nil, parks until block closes or the job context ends.
func stubExec(execs *atomic.Int32, block chan struct{}) ExecFunc {
	return func(ctx context.Context, spec JobSpec, simWorkers int, progress func(runner.Snapshot)) (*JobResult, error) {
		if execs != nil {
			execs.Add(1)
		}
		if block != nil {
			select {
			case <-block:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return &JobResult{Output: "stub output for " + spec.Experiment}, nil
	}
}

func canonical(t *testing.T, s JobSpec) JobSpec {
	t.Helper()
	c, err := Canonicalize(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// waitRunning polls until n jobs are executing.
func waitRunning(t *testing.T, s *Scheduler, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Counters().Running < n {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d running jobs (have %d)", n, s.Counters().Running)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDedupRunsSimulationExactlyOnce is the singleflight guarantee:
// identical specs submitted concurrently share one execution, and every
// waiter sees the same result.
func TestDedupRunsSimulationExactlyOnce(t *testing.T) {
	var execs atomic.Int32
	block := make(chan struct{})
	s := NewScheduler(SchedulerConfig{Jobs: 4, QueueDepth: 16}, stubExec(&execs, block))
	defer s.Close()

	spec := canonical(t, JobSpec{Experiment: "fig8"})
	const submitters = 8
	tasks := make([]*task, submitters)
	admissions := make([]Admission, submitters)
	var wg sync.WaitGroup
	wg.Add(submitters)
	for i := 0; i < submitters; i++ {
		go func(i int) {
			defer wg.Done()
			_, tk, _, adm, err := s.Submit(spec, "")
			if err != nil {
				t.Errorf("submitter %d: %v", i, err)
				return
			}
			tasks[i], admissions[i] = tk, adm
		}(i)
	}
	wg.Wait()
	close(block)

	var admitted, deduped int
	var shared *task
	for i := range tasks {
		if tasks[i] == nil {
			t.Fatalf("submitter %d got no task", i)
		}
		if shared == nil {
			shared = tasks[i]
		} else if tasks[i] != shared {
			t.Error("concurrent identical submissions returned different tasks")
		}
		switch admissions[i] {
		case Admitted:
			admitted++
		case Deduped:
			deduped++
		}
	}
	if admitted != 1 || deduped != submitters-1 {
		t.Errorf("admissions = %d admitted / %d deduped, want 1 / %d", admitted, deduped, submitters-1)
	}
	<-shared.done
	if got := execs.Load(); got != 1 {
		t.Errorf("simulation executed %d times, want exactly 1", got)
	}

	// After completion the spec is a cache hit carrying the stored
	// terminal document.
	_, _, body, adm, err := s.Submit(spec, "")
	if err != nil || adm != CacheHit {
		t.Fatalf("resubmit = %v admission %v, want cache hit", err, adm)
	}
	var doc JobStatus
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Status != StatusDone || doc.ID != shared.id {
		t.Errorf("cached doc = %s/%s, want done/%s", doc.Status, doc.ID, shared.id)
	}
	if got := execs.Load(); got != 1 {
		t.Errorf("cache hit re-ran the simulation (%d executions)", got)
	}
}

// TestSubmitReadsStoreOutsideLock: a Submit whose durable read is slow
// holds up nobody else. While it is blocked in the store, a GET of an
// in-flight job and a Submit of another spec both complete.
func TestSubmitReadsStoreOutsideLock(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s := NewScheduler(SchedulerConfig{Jobs: 1, QueueDepth: 4}, stubExec(nil, block))
	defer s.Close()
	running := canonical(t, JobSpec{Experiment: "fig8"})
	slow := canonical(t, JobSpec{Experiment: "fig11"})
	other := canonical(t, JobSpec{Experiment: "fig14"})
	loading, release := make(chan struct{}), make(chan struct{})
	releaseOnce := sync.OnceFunc(func() { close(release) })
	defer releaseOnce() // before s.Close, which waits for the lock
	weigh := func(jobDoc) int64 { return 1 }
	s.results = store.NewChain(1<<20, weigh, nil, store.Durable[string, jobDoc]{
		Load: func(id string) (jobDoc, bool) {
			if id == Hash(slow) {
				close(loading)
				<-release
			}
			return jobDoc{}, false
		},
	})

	_, live, _, _, err := s.Submit(running, "")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)
	slowDone := make(chan error, 1)
	go func() {
		_, _, _, _, err := s.Submit(slow, "")
		slowDone <- err
	}()
	<-loading
	others := make(chan struct{})
	go func() {
		defer close(others)
		if _, ok := s.Get(live.id); !ok {
			t.Error("GET lost the in-flight job")
		}
		if _, _, _, adm, err := s.Submit(other, ""); err != nil || adm != Admitted {
			t.Errorf("Submit of another spec = %v admission %v, want admitted", err, adm)
		}
	}()
	select {
	case <-others:
	case <-time.After(5 * time.Second):
		t.Fatal("a GET and a Submit waited for another Submit's store read")
	}
	releaseOnce()
	if err := <-slowDone; err != nil {
		t.Errorf("the slow Submit: %v", err)
	}
}

func TestQueueFullRejection(t *testing.T) {
	block := make(chan struct{})
	s := NewScheduler(SchedulerConfig{Jobs: 1, QueueDepth: 1}, stubExec(nil, block))
	defer func() { close(block); s.Close() }()

	// First job occupies the single worker...
	if _, _, _, _, err := s.Submit(canonical(t, JobSpec{Experiment: "fig8"}), ""); err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)
	// ...second fills the queue...
	if _, _, _, _, err := s.Submit(canonical(t, JobSpec{Experiment: "fig11"}), ""); err != nil {
		t.Fatal(err)
	}
	// ...third must be refused.
	if _, _, _, _, err := s.Submit(canonical(t, JobSpec{Experiment: "fig14"}), ""); err != ErrQueueFull {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if s.Counters().Rejected != 1 {
		t.Errorf("rejected counter = %d, want 1", s.Counters().Rejected)
	}
	if s.RetryAfter() < 1 {
		t.Errorf("RetryAfter = %d, want >= 1", s.RetryAfter())
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s := NewScheduler(SchedulerConfig{Jobs: 1, QueueDepth: 4}, stubExec(nil, block))
	defer s.Close()

	_, running, _, _, err := s.Submit(canonical(t, JobSpec{Experiment: "fig8"}), "")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)
	_, queued, _, _, err := s.Submit(canonical(t, JobSpec{Experiment: "fig11"}), "")
	if err != nil {
		t.Fatal(err)
	}

	// Cancelling a queued job finalizes it immediately.
	if _, ok := s.Cancel(queued.id); !ok {
		t.Fatal("queued job not found for cancel")
	}
	<-queued.done
	if st := queued.Status().Status; st != StatusCanceled {
		t.Errorf("queued job status = %s, want canceled", st)
	}

	// Cancelling a running job cancels its context; the executor
	// returns and the job finalizes as cancelled.
	if _, ok := s.Cancel(running.id); !ok {
		t.Fatal("running job not found for cancel")
	}
	<-running.done
	if st := running.Status().Status; st != StatusCanceled {
		t.Errorf("running job status = %s, want canceled", st)
	}
	// A cancelled result must never satisfy later identical requests.
	_, _, _, adm, err := s.Submit(canonical(t, JobSpec{Experiment: "fig11"}), "")
	if err != nil || adm == CacheHit {
		t.Errorf("resubmit after cancel = admission %v err %v, want fresh admission", adm, err)
	}
}

func TestJobDeadline(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s := NewScheduler(SchedulerConfig{Jobs: 1}, stubExec(nil, block))
	defer s.Close()
	_, tk, _, _, err := s.Submit(canonical(t, JobSpec{Experiment: "fig8", TimeoutSec: 1}), "")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-tk.done:
	case <-time.After(5 * time.Second):
		t.Fatal("deadline never fired")
	}
	st := tk.Status()
	if st.Status != StatusFailed || st.Error != "job deadline exceeded" {
		t.Errorf("deadlined job = %s/%q, want failed/job deadline exceeded", st.Status, st.Error)
	}
	if s.Counters().Failed != 1 {
		t.Errorf("failed counter = %d, want 1 after deadline", s.Counters().Failed)
	}
}

func TestDrainFinishesInFlightJobs(t *testing.T) {
	// Fast executor: drain should complete cleanly within grace.
	s := NewScheduler(SchedulerConfig{Jobs: 2}, stubExec(nil, nil))
	_, tk, _, _, err := s.Submit(canonical(t, JobSpec{Experiment: "fig8"}), "")
	if err != nil {
		t.Fatal(err)
	}
	if !s.Drain(5 * time.Second) {
		t.Error("drain reported stragglers for a fast job")
	}
	select {
	case <-tk.done:
	default:
		t.Error("job not terminal after drain")
	}
	if st := tk.Status().Status; st != StatusDone {
		t.Errorf("job status after clean drain = %s, want done", st)
	}
	// Draining scheduler refuses new work.
	if _, _, _, _, err := s.Submit(canonical(t, JobSpec{Experiment: "fig11"}), ""); err != ErrDraining {
		t.Errorf("submit while draining = %v, want ErrDraining", err)
	}
}

func TestDrainCancelsStragglers(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	s := NewScheduler(SchedulerConfig{Jobs: 1, QueueDepth: 4}, stubExec(nil, block))
	_, running, _, _, err := s.Submit(canonical(t, JobSpec{Experiment: "fig8"}), "")
	if err != nil {
		t.Fatal(err)
	}
	waitRunning(t, s, 1)
	_, queued, _, _, err := s.Submit(canonical(t, JobSpec{Experiment: "fig11"}), "")
	if err != nil {
		t.Fatal(err)
	}
	if s.Drain(20 * time.Millisecond) {
		t.Error("drain reported clean for a blocked job")
	}
	for _, tk := range []*task{running, queued} {
		if st := tk.Status().Status; st != StatusCanceled {
			t.Errorf("straggler status = %s, want canceled", st)
		}
	}
}

// TestCancelledQueuedJobFreesItsSlot: with one execution slot and a
// queue of one per class, cancelling the queued jobs gives their slots
// back at once. The queued gauge reads 0, Retry-After falls back to 1,
// and the next submissions are admitted; Retry-After then counts the
// live pending jobs, not the cancelled ones.
func TestCancelledQueuedJobFreesItsSlot(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	ts, svc := newTestServer(t, Config{Jobs: 1, QueueDepth: 1}, stubExec(nil, block))
	s := svc.Scheduler()
	post := func(spec string, want int) *http.Response {
		t.Helper()
		resp, _ := postJob(t, ts, spec)
		if resp.StatusCode != want {
			t.Fatalf("POST %s: HTTP %d, want %d", spec, resp.StatusCode, want)
		}
		return resp
	}
	post(`{"experiment":"fig8"}`, http.StatusAccepted)
	waitRunning(t, s, 1)
	quick, paper := canonical(t, JobSpec{Experiment: "fig11"}), canonical(t, JobSpec{Experiment: "fig8", Scale: "paper"})
	post(`{"experiment":"fig11"}`, http.StatusAccepted)
	post(`{"experiment":"fig8","scale":"paper"}`, http.StatusAccepted)
	for _, spec := range []JobSpec{quick, paper} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+Hash(spec), nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cancel of a queued job: HTTP %d, want 200", resp.StatusCode)
		}
	}
	if q := metricRow(t, ts, "coherenced_jobs_queued"); q != 0 {
		t.Errorf("coherenced_jobs_queued = %d after cancelling every queued job, want 0", q)
	}
	if ra := s.RetryAfter(); ra != 1 {
		t.Errorf("RetryAfter = %d with nothing queued, want 1", ra)
	}
	post(`{"experiment":"fig14"}`, http.StatusAccepted)
	post(`{"experiment":"fig9","scale":"paper"}`, http.StatusAccepted)
	if ra := post(`{"experiment":"fig16"}`, http.StatusTooManyRequests).Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After = %q with two jobs queued, want 2", ra)
	}
	if q := metricRow(t, ts, "coherenced_jobs_queued"); q != 2 {
		t.Errorf("coherenced_jobs_queued = %d, want 2", q)
	}
}

// TestQuickJobsRunAheadOfPaperJobs: with one execution slot busy, a
// paper job queued before a quick one still starts after it.
func TestQuickJobsRunAheadOfPaperJobs(t *testing.T) {
	block := make(chan struct{})
	var mu sync.Mutex
	var started []string
	exec := func(ctx context.Context, spec JobSpec, simWorkers int, progress func(runner.Snapshot)) (*JobResult, error) {
		mu.Lock()
		started = append(started, spec.Experiment+"/"+spec.Scale)
		mu.Unlock()
		if spec.Experiment == "fig8" && spec.Scale == "quick" {
			<-block
		}
		return &JobResult{}, nil
	}
	s := NewScheduler(SchedulerConfig{Jobs: 1}, exec)
	defer s.Close()
	for i, spec := range []JobSpec{{Experiment: "fig8"}, {Experiment: "fig8", Scale: "paper"}, {Experiment: "fig11"}} {
		if _, _, _, _, err := s.Submit(canonical(t, spec), ""); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			waitRunning(t, s, 1) // the blocker holds the slot
		}
	}
	close(block)
	if !s.Drain(5 * time.Second) {
		t.Fatal("drain cancelled a job")
	}
	if want := []string{"fig8/quick", "fig11/quick", "fig8/paper"}; !slices.Equal(started, want) {
		t.Errorf("jobs started in the order %v, want %v", started, want)
	}
}
