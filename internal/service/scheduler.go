package service

import (
	"context"
	"encoding/json"
	"errors"
	"maps"
	"slices"
	"sync"
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
	id     string
	spec   JobSpec
	tenant string

	mu       *sync.Mutex // the scheduler's lock; it guards the fields below
	status   string
	errMsg   string
	progress ProgressEvent      // the newest snapshot; zero before the first
	body     []byte             // marshaled terminal JobStatus document
	cancel   context.CancelFunc // set while running
	// changed is closed, and replaced, whenever status, progress or body
	// changes: an event stream waits on it, then re-reads the task.
	changed chan struct{}
}

// wake tells every waiting event stream that t changed. Called with
// t.mu held.
func (t *task) wake() {
	close(t.changed)
	t.changed = make(chan struct{})
}

func isTerminal(status string) bool {
	return status == StatusDone || status == StatusFailed || status == StatusCanceled
}

// Status returns the job's current API document. For terminal jobs the
// stored body is authoritative instead (byte-identical reads).
func (t *task) Status() JobStatus {
	doc, _, _, _ := t.watch()
	return doc
}

// terminalBody returns the marshaled terminal document, or nil while
// the job is still queued or running (finalize sets both at once).
func (t *task) terminalBody() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.body
}

// watch reads what an event stream shows of t: its status document,
// its newest progress, its terminal document (nil while it is queued or
// running), and the channel closed at its next change.
func (t *task) watch() (doc JobStatus, progress ProgressEvent, body []byte, changed <-chan struct{}) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return JobStatus{ID: t.id, Status: t.status, Spec: t.spec, Error: t.errMsg}, t.progress, t.body, t.changed
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
func newResults(maxBytes int64, st docStore) *store.Chain[string, jobDoc] {
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

// docStore is the result cache's durable layer: the daemon's
// *store.Store, whose methods treat a nil store as empty.
type docStore interface {
	Get(id string) (body []byte, status string, ok bool)
	Put(id, status string, body []byte) error
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
	Queued    int    // jobs currently pending
	Running   int    // jobs currently executing
}

// Scheduler owns job admission, ordering, execution, and teardown. Its
// state is plain data under one mutex: two pending FIFOs of at most
// QueueDepth jobs each, quick-scale (and single-run) jobs and
// paper-scale sweeps; the in-flight set and per-tenant counts; the
// draining flag; the lifetime counters and the transaction-latency
// histogram. A free worker always takes the oldest quick job before any
// paper job, so a burst of heavy sweeps cannot starve interactive
// requests (a running sweep is never preempted). Cancelling a queued job
// takes it off its list at once, freeing its slot.
type Scheduler struct {
	cfg     SchedulerConfig
	results *store.Chain[string, jobDoc] // terminal documents: memory, then the store
	exec    ExecFunc

	root context.Context // parent of every job context; cancelled when the scheduler stops
	stop context.CancelFunc

	workers sync.WaitGroup

	mu           sync.Mutex
	changed      sync.Cond        // on mu: a job was queued, nothing is in flight, or the scheduler stopped
	quick, paper []*task          // pending jobs by priority class, oldest first
	inflight     map[string]*task // id -> pending or running job
	perTenant    map[string]int   // tenant -> in-flight job count
	draining     bool
	cut          bool     // the grace period expired with jobs in flight
	c            Counters // lifetime counters and the running gauge; Queued is derived

	// Cumulative transaction-latency histogram folded from completed
	// breakdown jobs, rendered by /metrics. Cache hits do not refold:
	// the simulation behind them ran (and was counted) exactly once.
	latBkt   [trace.LatencyBucketCount]uint64
	latSum   uint64
	latCount uint64
}

// NewScheduler builds and starts a scheduler executing jobs with exec
// (the Service's memo-bound executor in production; tests substitute
// stubs) on cfg.Jobs workers.
func NewScheduler(cfg SchedulerConfig, exec ExecFunc) *Scheduler {
	s := newScheduler(cfg, exec)
	s.workers.Add(s.cfg.Jobs)
	for range s.cfg.Jobs {
		go s.worker()
	}
	return s
}

// newScheduler builds a scheduler that starts no goroutine: its jobs
// run only as its caller takes and finalizes them.
func newScheduler(cfg SchedulerConfig, exec ExecFunc) *Scheduler {
	cfg = cfg.withDefaults()
	root, stop := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:       cfg,
		results:   newResults(cfg.CacheBytes, cfg.Store),
		exec:      exec,
		root:      root,
		stop:      stop,
		inflight:  make(map[string]*task),
		perTenant: make(map[string]int),
	}
	s.changed.L = &s.mu
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
// experiment sweeps goes on the quick list.
func (s *Scheduler) queueFor(spec JobSpec) *[]*task {
	if spec.Kind == "experiment" && spec.Scale == "paper" {
		return &s.paper
	}
	return &s.quick
}

// Submit admits one canonical spec (callers must Canonicalize first)
// on behalf of tenant and returns the spec's content address, which
// names the job. Of the other returns exactly one is meaningful per
// admission class: the live task for Admitted/Deduped, the stored
// document for CacheHit. A cache hit is served from memory when
// possible and from the durable store otherwise, so identical specs
// replay byte-identical across daemon restarts.
func (s *Scheduler) Submit(spec JobSpec, tenant string) (id string, t *task, cached []byte, adm Admission, err error) {
	id = Hash(spec)
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
		return id, nil, nil, 0, ErrDraining
	}
	if t = s.inflight[id]; t != nil {
		s.c.Deduped++
		return id, t, nil, Deduped, nil
	}
	if !found {
		// It may have finished since the look above: finalize files the
		// document before the job leaves inflight.
		doc, found = s.results.Peek(id)
	}
	if found && doc.status == StatusDone {
		s.c.CacheHits++
		if loaded {
			s.c.StoreHits++
		}
		return id, nil, doc.body, CacheHit, nil
	}
	if q := s.cfg.quotaFor(tenant); q > 0 && s.perTenant[tenant] >= q {
		s.c.QuotaHits++
		return id, nil, nil, 0, ErrQuotaExceeded
	}
	q := s.queueFor(spec)
	if len(*q) >= s.cfg.QueueDepth {
		s.c.Rejected++
		return id, nil, nil, 0, ErrQueueFull
	}
	t = &task{id: id, spec: spec, tenant: tenant, mu: &s.mu, status: StatusQueued, changed: make(chan struct{})}
	*q = append(*q, t)
	s.inflight[id] = t
	s.perTenant[tenant]++
	s.c.Submitted++
	s.changed.Broadcast()
	return id, t, nil, Admitted, nil
}

// SetQuotas hot-swaps the tenant admission quotas (0 = unlimited; the
// map overrides the default per tenant). New bounds apply to future
// submissions only — jobs already admitted are never evicted, so a
// reload never drops work.
func (s *Scheduler) SetQuotas(quota int, quotas map[string]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cfg.TenantQuota, s.cfg.TenantQuotas = quota, maps.Clone(quotas)
}

// Quotas reports the live tenant admission quotas (copy).
func (s *Scheduler) Quotas() (int, map[string]int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cfg.TenantQuota, maps.Clone(s.cfg.TenantQuotas)
}

// Get returns the queued or running job with this id (see Find).
func (s *Scheduler) Get(id string) (*task, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.inflight[id]
	return t, ok
}

// Cancel cancels a queued or running job: a queued one leaves its list
// and is finalized at once, a running one has its context cancelled
// and is finalized when its executor returns. It returns false when no
// such job is in flight (it may have already finished).
func (s *Scheduler) Cancel(id string) (*task, bool) {
	s.mu.Lock()
	t, ok := s.inflight[id]
	queued := ok && s.unqueue(t)
	if ok && !queued && t.cancel != nil {
		t.cancel()
	}
	s.mu.Unlock()
	if queued {
		s.finalize(t, nil, context.Canceled)
	}
	return t, ok
}

// unqueue takes t off its pending list; false when t is not on it.
// Called with s.mu held.
func (s *Scheduler) unqueue(t *task) bool {
	q := s.queueFor(t.spec)
	i := slices.Index(*q, t)
	if i >= 0 {
		*q = slices.Delete(*q, i, i+1)
	}
	return i >= 0
}

// RetryAfter estimates (in whole seconds, >= 1) when a rejected client
// should retry, scaled by the number of pending jobs.
func (s *Scheduler) RetryAfter() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return max(1, len(s.quick)+len(s.paper))
}

// Counters snapshots the scheduler's lifetime counters and gauges.
func (s *Scheduler) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.c
	c.Queued = len(s.quick) + len(s.paper)
	return c
}

// worker runs jobs until the scheduler stops.
func (s *Scheduler) worker() {
	defer s.workers.Done()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.root.Err() == nil {
		t, ctx := s.take()
		if t == nil {
			s.changed.Wait()
			continue
		}
		s.mu.Unlock()
		s.run(ctx, t)
		s.mu.Lock()
	}
}

// take starts the oldest pending quick job, else the oldest paper job,
// under its own cancellable (and optionally deadlined) context. It
// returns nil when nothing is pending or the scheduler has stopped.
// Called with s.mu held.
func (s *Scheduler) take() (*task, context.Context) {
	q := &s.quick
	if len(*q) == 0 {
		q = &s.paper
	}
	if len(*q) == 0 || s.root.Err() != nil {
		return nil, nil
	}
	t := (*q)[0]
	*q = slices.Delete(*q, 0, 1)
	var ctx context.Context
	if d := time.Duration(t.spec.TimeoutSec) * time.Second; d > 0 {
		ctx, t.cancel = context.WithTimeout(s.root, d)
	} else {
		ctx, t.cancel = context.WithCancel(s.root)
	}
	t.status = StatusRunning
	t.wake()
	s.c.Running++
	return t, ctx
}

// run executes one taken job and finalizes it.
func (s *Scheduler) run(ctx context.Context, t *task) {
	// The progress hook runs serially under the job pool's lock, so the
	// previous-cycles accumulator needs no further synchronization.
	var prevCycles uint64
	progress := func(sn runner.Snapshot) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.c.SimCycles += sn.SimCycles - prevCycles
		prevCycles = sn.SimCycles
		t.progress = ProgressEvent{
			JobsDone:  sn.JobsDone,
			JobsTotal: sn.JobsTotal,
			SimCycles: sn.SimCycles,
			ETAMillis: sn.ETA().Milliseconds(),
			Label:     sn.Label,
		}
		t.wake()
	}
	res, err := s.exec(ctx, t.spec, s.cfg.SimWorkers, progress)
	s.finalize(t, res, err)
}

// finalize moves a job to its terminal state. Its caller owns the job
// — it took it off a pending list, or ran it — so every job is
// finalized exactly once. It files the immutable terminal document in
// the result cache, then updates the counters and removes the job from
// the in-flight set, and releases its waiters.
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
	// Filed (and written through, outside the lock) before the job
	// leaves inflight, so Submit finds one or the other.
	s.results.Put(t.id, jobDoc{status, body})

	s.mu.Lock()
	if t.cancel != nil {
		t.cancel()
		s.c.Running--
	}
	t.status, t.errMsg, t.body, t.cancel = status, doc.Error, body, nil
	t.wake()
	switch status {
	case StatusDone:
		s.c.Completed++
		if res != nil && res.Breakdown != nil {
			s.foldLatency(res.Breakdown)
		}
	case StatusFailed:
		s.c.Failed++
	case StatusCanceled:
		s.c.Canceled++
	}
	delete(s.inflight, t.id)
	if s.perTenant[t.tenant] > 1 {
		s.perTenant[t.tenant]--
	} else {
		delete(s.perTenant, t.tenant)
	}
	if len(s.inflight) == 0 {
		s.changed.Broadcast()
	}
	s.mu.Unlock()
}

// foldLatency accumulates a completed job's per-run transaction-latency
// histograms into the scheduler's cumulative histogram. Called with
// s.mu held.
func (s *Scheduler) foldLatency(rep *trace.BreakdownReport) {
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
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latBkt, s.latSum, s.latCount
}

// Drain is the SIGTERM path, in three steps: stop admitting
// (beginDrain); give the jobs in flight grace to finish; on expiry,
// cancel the running jobs and finalize the pending ones as cancelled
// (expire). It returns once nothing is in flight and the workers have
// stopped: true when every job finished within the grace period, false
// when stragglers were cancelled.
func (s *Scheduler) Drain(grace time.Duration) bool {
	s.beginDrain()
	timer := time.AfterFunc(grace, s.expire)
	s.mu.Lock()
	for len(s.inflight) > 0 {
		s.changed.Wait()
	}
	timer.Stop()
	clean := !s.cut
	s.stop()
	s.changed.Broadcast()
	s.mu.Unlock()
	s.workers.Wait()
	return clean
}

// beginDrain stops admitting: every later Submit gets ErrDraining.
func (s *Scheduler) beginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// expire ends the grace period: it stops the scheduler, which cancels
// every running job's context and lets no job start, and finalizes every
// pending job as cancelled.
func (s *Scheduler) expire() {
	s.mu.Lock()
	pending := slices.Concat(s.quick, s.paper)
	s.quick, s.paper = nil, nil
	s.cut = len(s.inflight) > 0
	s.stop()
	s.mu.Unlock()
	for _, t := range pending {
		s.finalize(t, nil, context.Canceled)
	}
}

// Close tears the scheduler down immediately (a zero-grace Drain).
func (s *Scheduler) Close() { s.Drain(0) }
