package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"slices"
	"sync"
	"time"

	"coherencesim/internal/experiments"
)

// Config tunes the coordinator.
type Config struct {
	// HeartbeatTimeout is how long a worker may go silent before its
	// leased shards are reassigned (default 5s).
	HeartbeatTimeout time.Duration
	// PollWait is how long an empty poll is held open (default 1s; must
	// stay under HeartbeatTimeout so an idle worker's polls keep it
	// alive).
	PollWait time.Duration
	// MaxAttempts bounds executions per shard before the owning job
	// fails (default 3).
	MaxAttempts int
	// RetryBackoff delays a requeued shard's next lease, doubling per
	// attempt up to 8x (default 250ms).
	RetryBackoff time.Duration
	// Memo answers before anything is leased and keeps every accepted
	// result: the daemon's, shared with its local executor, or (nil) the
	// coordinator's own. Its durable layer, if any (the daemon's store),
	// answers points memory does not hold — after a restart, an eviction
	// — and receives every accepted result.
	Memo *experiments.WarmForkCache
	Logf func(format string, args ...any)
}

func (cfg Config) withDefaults() Config {
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 5 * time.Second
	}
	if cfg.PollWait <= 0 {
		cfg.PollWait = time.Second
	}
	if cfg.PollWait > cfg.HeartbeatTimeout/2 {
		cfg.PollWait = cfg.HeartbeatTimeout / 2
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 250 * time.Millisecond
	}
	if cfg.Memo == nil {
		cfg.Memo = experiments.NewWarmForkCache()
	}
	return cfg
}

// Stats is a snapshot of the coordinator's counters for /metrics.
type Stats struct {
	WorkersLive  int
	Dispatched   uint64 // shard leases handed to workers
	Batches      uint64 // responses that carried a lease (= Dispatched); bench/probes.go reads it until a benchmark-definition PR retires it with its ledger rows
	Completed    uint64 // shards finished (first result per shard)
	Reassigned   uint64 // shards requeued after worker death or failure
	Stolen       uint64 // constant 0 (nothing is leased ahead, so nothing is stolen); bench/probes.go reads it until a benchmark-definition PR retires it with its ledger row
	DupCompletes uint64 // completions for shards no longer outstanding (no-ops)
	Failed       uint64 // shards exhausted (failed every job attached)
	CacheHits    uint64 // points answered from the memo's durable layer
	Coalesced    uint64 // points answered without a lease of their own: from the memo, or attached to an outstanding shard
	LocalRuns    uint64 // shards executed by the coordinator's fallback
}

// localHolder is the lease holder of a shard the coordinator's own
// fallback is executing; the register handler refuses it as a worker ID.
const localHolder = ""

// A shard is one distinct point on its way to a result: on the pending
// FIFO or in the leased map (someone is executing it), and in inflight
// by key either way. Every slot that asks for the point meanwhile is
// attached to it, to be filled when it settles.
type shard struct {
	id        string
	key       string
	point     experiments.Point
	slots     []slot
	attempts  int
	notBefore time.Time
	worker    string // lease holder; meaningful only while leased
}

type slot struct { // one place in one job's results
	job   *fleetJob
	index int
}

type fleetJob struct {
	id        string
	ctx       context.Context
	results   []experiments.PointResult
	remaining int
	err       error // why the job ended early: a shard's failure, or ctx's
	finished  chan struct{}
	onDone    func(index int, r experiments.PointResult)
}

// Coordinator owns the shard queue, the worker registry, and the
// submission-order assembly of every in-flight decomposed sweep.
type Coordinator struct {
	cfg Config
	now func() time.Time // time.Now; in-package tests substitute a manual clock

	mu       sync.Mutex
	workers  map[string]time.Time // worker ID -> when it was last heard from
	pending  []*shard             // FIFO, subject to per-shard notBefore
	leased   map[string]*shard    // by shard ID
	inflight map[string]*shard    // every pending or leased shard, by point key
	seq      int
	notify   chan struct{} // closed and replaced when work arrives
	closed   bool

	stats Stats

	done chan struct{}
}

// NewCoordinator builds a coordinator and starts its heartbeat sweep.
func NewCoordinator(cfg Config) *Coordinator {
	c := newCoordinator(cfg)
	go c.sweepLoop()
	return c
}

// newCoordinator is NewCoordinator without the sweep goroutine, for
// tests that call reapDead themselves.
func newCoordinator(cfg Config) *Coordinator {
	return &Coordinator{
		cfg:      cfg.withDefaults(),
		now:      time.Now,
		workers:  make(map[string]time.Time),
		leased:   make(map[string]*shard),
		inflight: make(map[string]*shard),
		notify:   make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Close stops the heartbeat sweep and releases pollers.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.mu.Unlock()
	close(c.done)
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// wake releases every long-poller to re-examine the queue. Callers hold
// c.mu.
func (c *Coordinator) wakeLocked() {
	close(c.notify)
	c.notify = make(chan struct{})
}

// LiveWorkers counts workers heard from within the heartbeat timeout.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.liveWorkersLocked()
}

func (c *Coordinator) liveWorkersLocked() int {
	now, n := c.now(), 0
	for _, seen := range c.workers {
		if now.Sub(seen) <= c.cfg.HeartbeatTimeout {
			n++
		}
	}
	return n
}

// Stats snapshots the counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Batches = s.Dispatched
	s.WorkersLive = c.liveWorkersLocked()
	return s
}

// sweepLoop periodically reaps workers that stopped heartbeating.
func (c *Coordinator) sweepLoop() {
	interval := c.cfg.HeartbeatTimeout / 4
	if interval < 5*time.Millisecond {
		interval = 5 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-c.done:
			return
		case <-t.C:
			c.reapDead()
		}
	}
}

// reapDead forgets every worker silent for longer than the heartbeat
// timeout and requeues the shards it was executing.
func (c *Coordinator) reapDead() {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	for id, seen := range c.workers {
		if now.Sub(seen) <= c.cfg.HeartbeatTimeout {
			continue
		}
		delete(c.workers, id)
		requeued := 0
		for sid, s := range c.leased {
			if s.worker != id {
				continue
			}
			delete(c.leased, sid)
			c.requeueLocked(s)
			requeued++
		}
		c.logf("fleet: worker %s timed out, requeued %d shards", id, requeued)
	}
}

// requeueLocked puts a shard back on the pending queue with one more
// attempt consumed and a bounded backoff. Callers hold c.mu and have
// already removed the shard from the leased map.
func (c *Coordinator) requeueLocked(s *shard) {
	s.attempts++
	backoff := c.cfg.RetryBackoff << uint(s.attempts-1)
	if max := c.cfg.RetryBackoff * 8; backoff > max {
		backoff = max
	}
	s.notBefore = c.now().Add(backoff)
	c.pending = append(c.pending, s)
	c.stats.Reassigned++
	c.wakeLocked()
}

// RunPoints blocks until every point has a result (returned in
// submission order), the context is cancelled, or a shard exhausts its
// attempts. A point is answered by the memo (memory, else its durable
// layer), else it attaches to the shard already outstanding for its key — this
// batch's or another job's — and only else gets a shard of its own, so a
// distinct point crosses the fleet once. onDone, when non-nil, observes
// every result as it lands (any order), however it was answered. With no
// live workers the calling process executes pending shards itself:
// distribution is an acceleration, never a dependency.
func (c *Coordinator) RunPoints(ctx context.Context, pts []experiments.Point, onDone func(index int, r experiments.PointResult)) ([]experiments.PointResult, error) {
	job := &fleetJob{
		ctx:      ctx,
		results:  make([]experiments.PointResult, len(pts)),
		finished: make(chan struct{}),
		onDone:   onDone,
	}
	// Before the lock (the durable layer is a file read): what is known.
	keys := make([]string, len(pts)) // left empty for a point answered here
	var answered []int
	var cacheHits uint64
	for i, pt := range pts {
		r, ok, loaded := c.cfg.Memo.Get(pt.Unlabeled())
		if loaded {
			cacheHits++
		}
		if ok {
			job.results[i] = r
			answered = append(answered, i)
		} else {
			keys[i] = pt.Key()
		}
	}

	c.mu.Lock()
	c.seq++
	job.id = fmt.Sprintf("j%d", c.seq)
	fresh := 0
	for i, pt := range pts {
		if keys[i] == "" {
			continue
		}
		// settle files a result in the memo before the key leaves
		// inflight, so one that was in neither above is in one now.
		if r, ok := c.cfg.Memo.Peek(pt.Unlabeled()); ok {
			job.results[i] = r
			answered = append(answered, i)
			continue
		}
		s := c.inflight[keys[i]]
		if s == nil {
			s = &shard{id: fmt.Sprintf("%s#%d", job.id, i), key: keys[i], point: pt}
			c.inflight[s.key] = s
			c.pending = append(c.pending, s)
			fresh++
		}
		s.slots = append(s.slots, slot{job, i})
		job.remaining++
	}
	c.stats.CacheHits += cacheHits
	c.stats.Coalesced += uint64(len(pts)-fresh) - cacheHits
	if fresh > 0 {
		c.wakeLocked()
	}
	c.mu.Unlock()

	// Outside c.mu, like settle's call; no shard writes an answered index.
	if onDone != nil {
		for _, i := range answered {
			onDone(i, job.results[i])
		}
	}
	if len(answered) == len(pts) {
		return job.results, nil
	}

	go c.localFallback(job)

	select {
	case <-job.finished: // job.err, if any, was set before the close
		if job.err != nil {
			return nil, job.err
		}
		return job.results, nil
	case <-ctx.Done():
		c.mu.Lock()
		job.err = ctx.Err()
		c.dropJobLocked(job)
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

// dropJobLocked detaches a cancelled or failed job from every shard. A
// shard other jobs are attached to stays where it is, attempts and
// lease included; one left without a slot goes, and a late completion
// for it is then a counted no-op. Callers hold c.mu.
func (c *Coordinator) dropJobLocked(job *fleetJob) {
	orphaned := func(s *shard) bool {
		s.slots = slices.DeleteFunc(s.slots, func(sl slot) bool { return sl.job == job })
		if len(s.slots) == 0 {
			delete(c.inflight, s.key)
		}
		return len(s.slots) == 0
	}
	c.pending = slices.DeleteFunc(c.pending, orphaned)
	maps.DeleteFunc(c.leased, func(_ string, s *shard) bool { return orphaned(s) })
}

// popPendingLocked removes and returns the first pending shard that ok
// accepts, or nil. Callers hold c.mu.
func (c *Coordinator) popPendingLocked(ok func(*shard) bool) *shard {
	i := slices.IndexFunc(c.pending, ok)
	if i < 0 {
		return nil
	}
	s := c.pending[i]
	c.pending = slices.Delete(c.pending, i, i+1)
	return s
}

// takeLocked leases the first pending shard that ok accepts to holder.
// Callers hold c.mu.
func (c *Coordinator) takeLocked(holder string, ok func(*shard) bool) *shard {
	s := c.popPendingLocked(ok)
	if s != nil {
		s.worker = holder
		c.leased[s.id] = s
	}
	return s
}

// localFallback executes pending shards on the coordinator process
// while job is live and no live workers exist — at job start, or after
// every worker died mid-sweep. It simulates directly (RunPoints asked
// the memo before the shard existed), so ctx never cuts a run short and
// every result is settled: other jobs may be attached to the shard.
func (c *Coordinator) localFallback(job *fleetJob) {
	for {
		for job.ctx.Err() == nil {
			var s *shard
			c.mu.Lock()
			if c.liveWorkersLocked() == 0 {
				if s = c.takeLocked(localHolder, func(*shard) bool { return true }); s != nil {
					c.stats.LocalRuns++
				}
			}
			c.mu.Unlock()
			if s == nil {
				break
			}
			res, err := experiments.RunPointForked(job.ctx, s.point, nil)
			if err != nil {
				c.settle(s.id, nil, err.Error())
			} else {
				c.settle(s.id, &res, "")
			}
		}
		select {
		case <-job.finished:
			return
		case <-job.ctx.Done():
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// settle records one shard outcome. A result is accepted for any shard
// still outstanding — leased to whoever, or requeued after its worker
// was presumed dead — because identical points produce identical bytes.
// Success files the result in the memo (and its durable layer) and fills
// every attached slot; failure requeues the shard or, once attempts are
// exhausted, fails every attached job and stores nothing, so a
// resubmission tries again. An outcome for a shard no longer outstanding
// (settled, or every job attached to it gone) is a counted no-op: it
// must not touch merge order, the memo or the counters a second time.
func (c *Coordinator) settle(id string, res *experiments.PointResult, errStr string) {
	c.mu.Lock()
	s := c.leased[id]
	if s != nil {
		delete(c.leased, id)
	} else if s = c.popPendingLocked(func(p *shard) bool { return p.id == id }); s == nil {
		c.stats.DupCompletes++
		c.mu.Unlock()
		return
	}
	if errStr != "" && s.attempts+1 < c.cfg.MaxAttempts {
		c.requeueLocked(s)
		c.mu.Unlock()
		c.logf("fleet: shard %s attempt %d failed (%s), requeued", s.id, s.attempts, errStr)
		return
	}
	if errStr != "" {
		delete(c.inflight, s.key)
		c.stats.Failed++
		err := fmt.Errorf("shard %s (%s) failed after %d attempts: %s", s.id, s.point.Label, s.attempts+1, errStr)
		for _, sl := range s.slots {
			if sl.job.err == nil { // once per job, however many slots it has here
				sl.job.err = err
				c.dropJobLocked(sl.job)
				close(sl.job.finished)
			}
		}
		c.mu.Unlock()
		c.logf("fleet: %v", err)
		return
	}
	c.mu.Unlock()

	// Out of both queues, s is this call's alone: another outcome for it
	// is a no-op. It stays in flight by key while the memo files the
	// result — a store write, outside c.mu — so a request for the point
	// meanwhile attaches to it instead of leasing it again.
	c.cfg.Memo.Put(s.point.Unlabeled(), *res)

	c.mu.Lock()
	delete(c.inflight, s.key)
	c.stats.Completed++
	var filled []slot
	var finished []*fleetJob
	for _, sl := range s.slots {
		if sl.job.err != nil {
			continue // failed or cancelled while the result was filed
		}
		filled = append(filled, sl)
		sl.job.results[sl.index] = *res
		if sl.job.remaining--; sl.job.remaining == 0 {
			finished = append(finished, sl.job)
		}
	}
	c.mu.Unlock()

	for _, sl := range filled {
		if sl.job.onDone != nil {
			sl.job.onDone(sl.index, *res)
		}
	}
	for _, job := range finished {
		close(job.finished)
	}
}

// register adds (or refreshes) a worker.
func (c *Coordinator) register(id string) {
	c.mu.Lock()
	c.workers[id] = c.now()
	c.mu.Unlock()
	c.logf("fleet: worker %s registered", id)
}

// heartbeat refreshes a worker's liveness; false means the worker is
// unknown (timed out or never registered) and must re-register.
func (c *Coordinator) heartbeat(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, known := c.workers[id]
	if known {
		c.workers[id] = c.now()
	}
	return known
}

// leaseLocked counts a poll or completion as a heartbeat and leases the
// worker the first eligible pending shard, if there is one. known is
// false for a worker that must re-register. Callers hold c.mu.
func (c *Coordinator) leaseLocked(workerID string) (lease *Shard, known bool) {
	if _, ok := c.workers[workerID]; !ok {
		return nil, false
	}
	now := c.now()
	c.workers[workerID] = now
	s := c.takeLocked(workerID, func(p *shard) bool { return !p.notBefore.After(now) })
	if s == nil {
		return nil, true
	}
	c.stats.Dispatched++
	return &Shard{ID: s.id, Key: s.key, Point: s.point}, true
}

// poll leases one shard to the worker, holding the request up to
// PollWait while nothing is eligible. A nil lease is an empty poll.
func (c *Coordinator) poll(workerID string) (lease *Shard, known bool) {
	deadline := time.Now().Add(c.cfg.PollWait) // wall time: the wait below is a real timer
	for {
		c.mu.Lock()
		lease, known = c.leaseLocked(workerID)
		notify := c.notify
		c.mu.Unlock()
		if lease != nil || !known {
			return lease, known
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, true
		}
		// Backoff'd shards become eligible without a wake; cap the wait.
		if remain > 25*time.Millisecond {
			remain = 25 * time.Millisecond
		}
		select {
		case <-notify:
		case <-time.After(remain):
		case <-c.done:
			return nil, true
		}
	}
}

// complete settles one shard outcome and answers with the slot's next
// lease: the slot that just finished is by definition free, so the
// round-trip that delivers a result also fetches the next point. The
// request is validated before any state changes — a rejected body must
// leave its shard leased, to be requeued when the worker times out.
func (c *Coordinator) complete(req CompleteRequest) (*Shard, error) {
	if req.Error == "" && req.Result == nil {
		return nil, fmt.Errorf("complete for %s carries neither result nor error", req.Shard)
	}
	c.settle(req.Shard, req.Result, req.Error)
	c.mu.Lock()
	defer c.mu.Unlock()
	next, _ := c.leaseLocked(req.Worker)
	return next, nil
}

// Mount registers the fleet's REST surface on mux.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/v1/fleet/register", c.handleRegister)
	mux.HandleFunc("/v1/fleet/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/v1/fleet/poll", c.handlePoll)
	mux.HandleFunc("/v1/fleet/complete", c.handleComplete)
}

// maxRequestBody bounds a worker's request: a completion is 1-7 KB at
// quick scale, ~350 KB at paper scale with its metrics series.
const maxRequestBody = 8 << 20

func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if req.ID == localHolder {
		http.Error(w, "worker id required", http.StatusBadRequest)
		return
	}
	c.register(req.ID)
	writeJSON(w, RegisterResponse{
		ID:                req.ID,
		HeartbeatInterval: (c.cfg.HeartbeatTimeout / 3).String(),
	})
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req WorkerRequest
	if !decodeInto(w, r, &req) {
		return
	}
	if !c.heartbeat(req.Worker) {
		http.Error(w, "unknown worker; re-register", http.StatusGone)
		return
	}
	writeJSON(w, struct{}{})
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req WorkerRequest
	if !decodeInto(w, r, &req) {
		return
	}
	lease, known := c.poll(req.Worker)
	if !known {
		http.Error(w, "unknown worker; re-register", http.StatusGone)
		return
	}
	writeJSON(w, LeaseResponse{Shard: lease})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeInto(w, r, &req) {
		return
	}
	next, err := c.complete(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, LeaseResponse{Shard: next})
}
