package service

import (
	"context"
	"encoding/json"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"coherencesim/internal/runner"
	"coherencesim/internal/store"
	"coherencesim/internal/trace"
)

// Admission classifies how Submit handled a request.
type Admission int

const (
	// Admitted: a fresh job was queued.
	Admitted Admission = iota
	// Deduped: an identical job was already queued or running; the
	// caller shares it (singleflight — the simulation runs once).
	Deduped
	// CacheHit: an identical job already completed; the stored document
	// is returned without re-simulating.
	CacheHit
)

// Admission errors surfaced to the API layer.
var (
	ErrQueueFull     = errors.New("job queue full")
	ErrDraining      = errors.New("service is draining")
	ErrQuotaExceeded = errors.New("tenant admission quota exceeded")
)

// SchedulerConfig bounds the scheduler.
type SchedulerConfig struct {
	QueueDepth int   // admission bound per priority class (default 64)
	Jobs       int   // concurrently executing jobs (default 2)
	SimWorkers int   // per-job simulation pool width (default GOMAXPROCS)
	CacheBytes int64 // in-memory result cache budget in body bytes (default 256 MiB)
	// Store, when non-nil, is the durable layer of the result cache:
	// completed (StatusDone) job documents are written through to it, and
	// lookups that miss memory are served from disk — byte-identical
	// across daemon restarts.
	Store *store.Store
	// TenantQuota bounds the number of in-flight (queued or running)
	// jobs any single tenant may hold; 0 disables the quota. Tenants are
	// identified by the X-Tenant request header ("" is the anonymous
	// tenant, subject to the same bound). Cache hits and deduplicated
	// submissions never count against the quota: it bounds admitted
	// work, not reads.
	TenantQuota int
	// TenantQuotas overrides TenantQuota per tenant name.
	TenantQuotas map[string]int
}

func (c SchedulerConfig) withDefaults() SchedulerConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Jobs <= 0 {
		c.Jobs = 2
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	return c
}

// quotaFor returns the tenant's in-flight bound (0 = unlimited).
func (c SchedulerConfig) quotaFor(tenant string) int {
	if q, ok := c.TenantQuotas[tenant]; ok {
		return q
	}
	return c.TenantQuota
}

// task is one submitted job's lifetime state.
type task struct {
	id        string
	spec      JobSpec
	tenant    string
	submitted time.Time
	events    *broadcaster
	done      chan struct{} // closed at terminal state

	mu     sync.Mutex
	status string
	errMsg string
	body   []byte             // marshaled terminal JobStatus document
	cancel context.CancelFunc // set while running
}

func newTask(id string, spec JobSpec) *task {
	return &task{
		id:        id,
		spec:      spec,
		submitted: time.Now(),
		events:    newBroadcaster(),
		done:      make(chan struct{}),
		status:    StatusQueued,
	}
}

func isTerminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCanceled
}

// Status returns the job's current API document. For terminal jobs the
// stored body is authoritative instead (byte-identical reads).
func (t *task) Status() JobStatus {
	t.mu.Lock()
	defer t.mu.Unlock()
	return JobStatus{ID: t.id, Status: t.status, Spec: t.spec, Error: t.errMsg}
}

// terminalBody returns the marshaled terminal document, or nil while
// the job is still queued or running.
func (t *task) terminalBody() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !isTerminal(t.status) {
		return nil
	}
	return t.body
}

// jobDoc is a terminal job document as the result cache holds it.
type jobDoc struct {
	status string
	body   []byte
}

// newResults is the result cache: store.Chain at job granularity,
// terminal documents by job id, bounded in memory by body bytes (a few
// paper-scale sweeps outweigh thousands of quick ones) over st. A hit
// replays the first response's bytes. Failed and cancelled documents are
// held so their status stays readable, but only completed ones are
// written through to st: a deadline or a cancellation describes one
// submission, not the spec, and must not shadow a later success.
func newResults(maxBytes int64, st *store.Store) *store.Chain[string, jobDoc] {
	var durable store.Durable[string, jobDoc]
	if st != nil {
		durable.Load = func(id string) (jobDoc, bool) {
			body, status, ok := st.Get(id)
			return jobDoc{status, body}, ok
		}
		durable.Save = func(id string, d jobDoc) {
			if d.status == StatusDone {
				_ = st.Put(id, d.status, d.body) // a failed write costs durability; memory still serves it
			}
		}
	}
	return store.NewChain(maxBytes, func(d jobDoc) int64 { return int64(len(d.body)) }, nil, durable)
}

// Counters is a point-in-time snapshot of the scheduler's lifetime
// counters and gauges, rendered by the /metrics endpoint.
type Counters struct {
	Submitted uint64 // jobs admitted to a queue
	Deduped   uint64 // submissions folded onto an identical in-flight job
	CacheHits uint64 // submissions served from the result cache (memory or disk)
	StoreHits uint64 // the subset of CacheHits served from the durable store
	Rejected  uint64 // submissions refused with queue-full
	QuotaHits uint64 // submissions refused by a tenant admission quota
	Completed uint64
	Failed    uint64
	Canceled  uint64
	SimCycles uint64 // simulated cycles served to jobs (simulated or answered from the point memo)
	Queued    int    // jobs currently waiting in the queues
	Running   int    // jobs currently executing
}

// Scheduler owns job admission, ordering, execution, and teardown. Two
// priority classes keep the service responsive: quick-scale jobs are
// always preferred over paper-scale ones, so a burst of heavy sweeps
// cannot starve interactive requests.
type Scheduler struct {
	cfg     SchedulerConfig
	results *store.Chain[string, jobDoc] // terminal documents: memory, then the store
	exec    ExecFunc

	root context.Context // parent of every job context
	stop context.CancelFunc

	quick chan *task // priority class: quick-scale (and single-run) jobs
	paper chan *task // paper-scale jobs

	workerWG sync.WaitGroup // worker goroutines
	jobWG    sync.WaitGroup // admitted, not-yet-terminal jobs

	mu        sync.Mutex
	inflight  map[string]*task // id -> queued or running job
	perTenant map[string]int   // tenant -> in-flight job count
	draining  bool

	submitted, deduped, cacheHits, storeHits, rejected, quotaHits atomic.Uint64
	completed, failed, canceled, simCycles                        atomic.Uint64
	running                                                       atomic.Int64

	// Cumulative transaction-latency histogram folded from completed
	// breakdown jobs, rendered by /metrics. Cache hits do not refold:
	// the simulation behind them ran (and was counted) exactly once.
	latMu    sync.Mutex
	latBkt   [trace.LatencyBucketCount]uint64
	latSum   uint64
	latCount uint64
}

// NewScheduler builds and starts a scheduler executing jobs with exec
// (the Service's memo-bound executor in production; tests substitute
// stubs).
func NewScheduler(cfg SchedulerConfig, exec ExecFunc) *Scheduler {
	cfg = cfg.withDefaults()
	root, stop := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:       cfg,
		results:   newResults(cfg.CacheBytes, cfg.Store),
		exec:      exec,
		root:      root,
		stop:      stop,
		quick:     make(chan *task, cfg.QueueDepth),
		paper:     make(chan *task, cfg.QueueDepth),
		inflight:  make(map[string]*task),
		perTenant: make(map[string]int),
	}
	s.workerWG.Add(cfg.Jobs)
	for i := 0; i < cfg.Jobs; i++ {
		go s.worker()
	}
	return s
}

// Find returns the job with this id: its task while it is queued or
// running, and its terminal document once it has one — the task's or,
// after it left, the result cache's (memory, then the store, whose hit
// re-warms memory).
func (s *Scheduler) Find(id string) (t *task, body []byte, ok bool) {
	if t, ok = s.Get(id); ok {
		return t, t.terminalBody(), true
	}
	d, ok, _ := s.results.Get(id)
	return nil, d.body, ok
}

// queueFor picks the priority class: everything except paper-scale
// experiment sweeps goes on the quick queue.
func (s *Scheduler) queueFor(spec JobSpec) chan *task {
	if spec.Kind == "experiment" && spec.Scale == "paper" {
		return s.paper
	}
	return s.quick
}

// Submit admits one canonical spec (callers must Canonicalize first)
// on behalf of tenant. Exactly one of the returns is meaningful per
// admission class: the live task for Admitted/Deduped, the stored
// document for CacheHit. A cache hit is served from memory when
// possible and from the durable store otherwise, so identical specs
// replay byte-identical across daemon restarts.
func (s *Scheduler) Submit(spec JobSpec, tenant string) (*task, []byte, Admission, error) {
	id := Hash(spec)
	s.mu.Lock()
	_, live := s.inflight[id]
	s.mu.Unlock()
	var doc jobDoc
	var found, loaded bool
	if !live {
		// Outside s.mu: a store read must not hold up every Submit, Get
		// and Cancel.
		doc, found, loaded = s.results.Get(id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, nil, 0, ErrDraining
	}
	if t, ok := s.inflight[id]; ok {
		s.deduped.Add(1)
		return t, nil, Deduped, nil
	}
	if !found {
		// It may have finished since the look above: finalize files the
		// document before the job leaves inflight.
		doc, found = s.results.Peek(id)
	}
	if found && doc.status == StatusDone {
		s.cacheHits.Add(1)
		if loaded {
			s.storeHits.Add(1)
		}
		return nil, doc.body, CacheHit, nil
	}
	if q := s.cfg.quotaFor(tenant); q > 0 && s.perTenant[tenant] >= q {
		s.quotaHits.Add(1)
		return nil, nil, 0, ErrQuotaExceeded
	}
	t := newTask(id, spec)
	t.tenant = tenant
	select {
	case s.queueFor(spec) <- t:
	default:
		s.rejected.Add(1)
		return nil, nil, 0, ErrQueueFull
	}
	s.inflight[id] = t
	s.perTenant[tenant]++
	s.jobWG.Add(1)
	s.submitted.Add(1)
	return t, nil, Admitted, nil
}

// SetQuotas hot-swaps the tenant admission quotas (0 = unlimited; the
// map overrides the default per tenant). New bounds apply to future
// submissions only — jobs already admitted are never evicted, so a
// reload never drops work.
func (s *Scheduler) SetQuotas(quota int, quotas map[string]int) {
	m := make(map[string]int, len(quotas))
	for k, v := range quotas {
		m[k] = v
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.TenantQuota = quota
	s.cfg.TenantQuotas = m
}

// Quotas reports the live tenant admission quotas (copy).
func (s *Scheduler) Quotas() (int, map[string]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := make(map[string]int, len(s.cfg.TenantQuotas))
	for k, v := range s.cfg.TenantQuotas {
		m[k] = v
	}
	return s.cfg.TenantQuota, m
}

// Get returns the queued or running job with this id (see Find).
func (s *Scheduler) Get(id string) (*task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.inflight[id]
	return t, ok
}

// Cancel cancels a queued or running job. It returns false when no
// such job is in flight (it may have already finished).
func (s *Scheduler) Cancel(id string) (*task, bool) {
	t, ok := s.Get(id)
	if !ok {
		return nil, false
	}
	t.mu.Lock()
	if t.status == StatusQueued {
		t.mu.Unlock()
		// Finalize immediately; the worker that later drains the queue
		// entry sees the terminal state and skips it.
		s.finalize(t, nil, context.Canceled)
		return t, true
	}
	cancel := t.cancel
	t.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return t, true
}

// RetryAfter estimates (in whole seconds, >= 1) when a rejected client
// should retry, scaled by the current queue depth.
func (s *Scheduler) RetryAfter() int {
	depth := len(s.quick) + len(s.paper)
	if depth < 1 {
		return 1
	}
	return depth
}

// Counters snapshots the scheduler's lifetime counters.
func (s *Scheduler) Counters() Counters {
	return Counters{
		Submitted: s.submitted.Load(),
		Deduped:   s.deduped.Load(),
		CacheHits: s.cacheHits.Load(),
		StoreHits: s.storeHits.Load(),
		Rejected:  s.rejected.Load(),
		QuotaHits: s.quotaHits.Load(),
		Completed: s.completed.Load(),
		Failed:    s.failed.Load(),
		Canceled:  s.canceled.Load(),
		SimCycles: s.simCycles.Load(),
		Queued:    len(s.quick) + len(s.paper),
		Running:   int(s.running.Load()),
	}
}

// worker executes jobs, always draining the quick queue before taking
// paper-scale work.
func (s *Scheduler) worker() {
	defer s.workerWG.Done()
	for {
		select {
		case t := <-s.quick:
			s.run(t)
		default:
			select {
			case t := <-s.quick:
				s.run(t)
			case t := <-s.paper:
				s.run(t)
			case <-s.root.Done():
				return
			}
		}
	}
}

// run executes one dequeued job under its own cancellable (and
// optionally deadlined) context.
func (s *Scheduler) run(t *task) {
	t.mu.Lock()
	if t.status != StatusQueued {
		// Cancelled while queued; already finalized.
		t.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.root)
	if t.spec.TimeoutSec > 0 {
		ctx, cancel = context.WithTimeout(s.root, time.Duration(t.spec.TimeoutSec)*time.Second)
	}
	t.status = StatusRunning
	t.cancel = cancel
	t.mu.Unlock()
	s.running.Add(1)
	t.events.publish(Event{Type: "status", Data: t.Status()})

	// The progress hook runs serially under the job pool's lock, so the
	// previous-cycles accumulator needs no further synchronization.
	var prevCycles uint64
	progress := func(sn runner.Snapshot) {
		s.simCycles.Add(sn.SimCycles - prevCycles)
		prevCycles = sn.SimCycles
		t.events.publish(Event{Type: "progress", Data: ProgressEvent{
			JobsDone:  sn.JobsDone,
			JobsTotal: sn.JobsTotal,
			SimCycles: sn.SimCycles,
			ETAMillis: sn.ETA().Milliseconds(),
			Label:     sn.Label,
		}})
	}
	res, err := s.exec(ctx, t.spec, s.cfg.SimWorkers, progress)
	cancel()
	s.running.Add(-1)
	s.finalize(t, res, err)
}

// finalize moves a job to its terminal state exactly once: builds and
// stores the immutable terminal document, updates counters, releases
// waiters, and removes the job from the in-flight set.
func (s *Scheduler) finalize(t *task, res *JobResult, err error) {
	status, msg := StatusDone, ""
	var raw json.RawMessage
	switch {
	case err == nil:
		if b, merr := json.Marshal(res); merr == nil {
			raw = b
		} else {
			status, msg = StatusFailed, "marshaling result: "+merr.Error()
		}
	case errors.Is(err, context.DeadlineExceeded):
		status, msg = StatusFailed, "job deadline exceeded"
	case errors.Is(err, context.Canceled):
		status, msg = StatusCanceled, "job cancelled"
	default:
		status, msg = StatusFailed, err.Error()
	}
	doc := JobStatus{ID: t.id, Status: status, Spec: t.spec, Error: msg, Result: raw}
	body, merr := json.Marshal(doc)
	if merr != nil {
		// Unreachable for these types; keep the job record consistent.
		doc = JobStatus{ID: t.id, Status: StatusFailed, Spec: t.spec, Error: merr.Error()}
		status = StatusFailed
		body, _ = json.Marshal(doc)
	}

	t.mu.Lock()
	if isTerminal(t.status) {
		// Lost a finalize race (e.g. two concurrent cancels).
		t.mu.Unlock()
		return
	}
	t.status = status
	t.errMsg = doc.Error
	t.body = body
	t.cancel = nil
	t.mu.Unlock()

	switch status {
	case StatusDone:
		s.completed.Add(1)
		if res != nil && res.Breakdown != nil {
			s.foldLatency(res.Breakdown)
		}
	case StatusFailed:
		s.failed.Add(1)
	case StatusCanceled:
		s.canceled.Add(1)
	}
	s.results.Put(t.id, jobDoc{status, body})
	s.mu.Lock()
	delete(s.inflight, t.id)
	if s.perTenant[t.tenant] > 1 {
		s.perTenant[t.tenant]--
	} else {
		delete(s.perTenant, t.tenant)
	}
	s.mu.Unlock()
	t.events.close()
	close(t.done)
	s.jobWG.Done()
}

// foldLatency accumulates a completed job's per-run transaction-latency
// histograms into the scheduler's cumulative histogram.
func (s *Scheduler) foldLatency(rep *trace.BreakdownReport) {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	for _, run := range rep.Runs {
		if run.Breakdown == nil {
			continue
		}
		h := run.Breakdown.Latency
		s.latSum += h.Sum
		s.latCount += h.Count
		for _, b := range h.Buckets {
			if i := trace.BucketIndex(b.Le); i >= 0 {
				s.latBkt[i] += b.N
			}
		}
	}
}

// TxnLatency snapshots the cumulative transaction-latency histogram
// (non-cumulative per-bucket counts, indexed like trace.BucketEdges).
func (s *Scheduler) TxnLatency() (bkt [trace.LatencyBucketCount]uint64, sum, count uint64) {
	s.latMu.Lock()
	defer s.latMu.Unlock()
	return s.latBkt, s.latSum, s.latCount
}

// Drain is the SIGTERM path: stop admitting, give in-flight jobs grace
// to finish, then cancel whatever remains and stop the workers. Safe to
// call once; returns true when every job finished within the grace
// period (false means stragglers were cancelled).
func (s *Scheduler) Drain(grace time.Duration) bool {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(finished)
	}()
	clean := true
	timer := time.NewTimer(grace)
	defer timer.Stop()
	select {
	case <-finished:
	case <-timer.C:
		clean = false
		s.stop()
		s.sweepQueues()
		<-finished
	}
	s.stop()
	s.workerWG.Wait()
	return clean
}

// sweepQueues finalizes still-queued jobs as cancelled once the root
// context is stopped, so Drain never waits on work no worker will take.
func (s *Scheduler) sweepQueues() {
	for {
		select {
		case t := <-s.quick:
			s.finalize(t, nil, context.Canceled)
		case t := <-s.paper:
			s.finalize(t, nil, context.Canceled)
		default:
			return
		}
	}
}

// Close tears the scheduler down immediately (a zero-grace Drain).
func (s *Scheduler) Close() { s.Drain(0) }
