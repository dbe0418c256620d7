package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"coherencesim/internal/experiments"
)

// ShardCache is the coordinator's shard-level result cache: completed
// point results keyed by the point's content address. *store.Store
// satisfies it, layering shard results into the same durable store as
// whole-job documents (both key spaces are SHA-256 hex in disjoint
// preimage namespaces).
type ShardCache interface {
	Get(key string) (body []byte, status string, ok bool)
	Put(key, status string, body []byte) error
}

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
	// Batch caps how many shards one poll round-trip may lease
	// (default 16; 1 forces per-point dispatch). Hot-reloadable via
	// SetTuning.
	Batch int
	// StealThreshold is the minimum queue a busy worker must hold
	// before an idle poller may steal the tail half of it (default 2;
	// negative disables stealing). Hot-reloadable via SetTuning.
	StealThreshold int
	// Cache, when non-nil, short-circuits shards whose results are
	// already stored and receives every fresh result.
	Cache ShardCache
	Logf  func(format string, args ...any)
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
	if cfg.Batch <= 0 {
		cfg.Batch = 16
	}
	if cfg.StealThreshold == 0 {
		cfg.StealThreshold = 2
	}
	return cfg
}

// Stats is a snapshot of the coordinator's counters for /metrics.
type Stats struct {
	WorkersLive  int
	Dispatched   uint64 // shard leases handed to workers
	Batches      uint64 // non-empty poll responses (round-trips saved vs Dispatched)
	Completed    uint64 // shards finished (first result per shard)
	Reassigned   uint64 // shards requeued after worker death or failure
	Stolen       uint64 // shards stolen from a busy worker's tail by an idle poller
	DupCompletes uint64 // completions for shards no longer outstanding (no-ops)
	Failed       uint64 // shards exhausted (failed their job)
	CacheHits    uint64 // shards answered from the shard cache
	LocalRuns    uint64 // shards executed by the coordinator's fallback
}

type workerState struct {
	id       string
	lastSeen time.Time
	queue    []*shard // leased to this worker, lease order (head is executing)
	reported int      // unstarted depth from the worker's last heartbeat/complete
	revoked  []string // stolen/elsewhere-completed shard IDs to deliver on next contact
}

type shard struct {
	id        string
	job       *fleetJob
	index     int
	key       string
	group     string // result-memo group: the key of a warm_fork point, else ""
	point     experiments.Point
	attempts  int
	notBefore time.Time
	worker    string // current lease ("" while pending)
}

type fleetJob struct {
	id        string
	ctx       context.Context
	results   []experiments.PointResult
	done      []bool
	remaining int
	err       error
	finished  chan struct{}
	onDone    func(index int, r experiments.PointResult)
}

// Coordinator owns the shard queue, the worker registry, and the
// submission-order assembly of every in-flight decomposed sweep.
type Coordinator struct {
	cfg Config

	mu      sync.Mutex
	batch   int // hot-reloadable copies of Config.Batch / StealThreshold
	steal   int
	workers map[string]*workerState
	pending []*shard          // FIFO, subject to per-shard notBefore
	leased  map[string]*shard // by shard ID
	seq     int
	notify  chan struct{} // closed and replaced when work arrives
	closed  bool

	stats Stats
	memo  pointMemo // localFallback's; shared by every job

	done chan struct{}
}

// NewCoordinator builds a coordinator and starts its heartbeat sweep.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:     cfg,
		batch:   cfg.Batch,
		steal:   cfg.StealThreshold,
		workers: make(map[string]*workerState),
		leased:  make(map[string]*shard),
		notify:  make(chan struct{}),
		done:    make(chan struct{}),
	}
	go c.sweepLoop()
	return c
}

// SetTuning hot-reloads the batch cap and steal threshold. Zero values
// restore defaults, a negative threshold disables stealing; in-flight
// leases are untouched — only future polls see the new values.
func (c *Coordinator) SetTuning(batch, stealThreshold int) {
	if batch <= 0 {
		batch = 16
	}
	if stealThreshold == 0 {
		stealThreshold = 2
	}
	c.mu.Lock()
	c.batch = batch
	c.steal = stealThreshold
	c.mu.Unlock()
}

// Tuning reports the live batch cap and steal threshold.
func (c *Coordinator) Tuning() (batch, stealThreshold int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batch, c.steal
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
	return c.liveWorkersLocked(time.Now())
}

func (c *Coordinator) liveWorkersLocked(now time.Time) int {
	n := 0
	for _, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.cfg.HeartbeatTimeout {
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
	s.WorkersLive = c.liveWorkersLocked(time.Now())
	return s
}

// sweepLoop periodically reaps workers that stopped heartbeating,
// requeueing their leased shards.
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
		case now := <-t.C:
			c.reapDead(now)
		}
	}
}

func (c *Coordinator) reapDead(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, w := range c.workers {
		if now.Sub(w.lastSeen) <= c.cfg.HeartbeatTimeout {
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
// already removed the shard from any worker queue.
func (c *Coordinator) requeueLocked(s *shard) {
	s.worker = ""
	s.attempts++
	backoff := c.cfg.RetryBackoff << uint(s.attempts-1)
	if max := c.cfg.RetryBackoff * 8; backoff > max {
		backoff = max
	}
	s.notBefore = time.Now().Add(backoff)
	c.pending = append(c.pending, s)
	c.stats.Reassigned++
	c.wakeLocked()
}

// RunPoints decomposes pts into shards and blocks until every result is
// assembled (in submission order), the context is cancelled, or a shard
// exhausts its attempts. onDone, when non-nil, observes completions as
// they land (any order) for progress reporting. Cached points never
// become shards. When no live workers exist, the calling process
// executes pending shards itself, so a fleet of zero still terminates —
// distribution is an acceleration, never a dependency.
func (c *Coordinator) RunPoints(ctx context.Context, pts []experiments.Point, onDone func(index int, r experiments.PointResult)) ([]experiments.PointResult, error) {
	job := &fleetJob{
		ctx:      ctx,
		results:  make([]experiments.PointResult, len(pts)),
		done:     make([]bool, len(pts)),
		finished: make(chan struct{}),
		onDone:   onDone,
	}

	c.mu.Lock()
	c.seq++
	job.id = fmt.Sprintf("j%d", c.seq)
	var fresh []*shard
	for i, pt := range pts {
		key := pt.Key()
		if body, status, ok := c.cacheGet(key); ok && status == "done" {
			var r experiments.PointResult
			if json.Unmarshal(body, &r) == nil {
				job.results[i] = r
				job.done[i] = true
				c.stats.CacheHits++
				continue
			}
		}
		group := ""
		if pt.WarmFork {
			group = key // the worker's memo is keyed by every key field
		}
		fresh = append(fresh, &shard{
			id:    fmt.Sprintf("%s#%d", job.id, i),
			job:   job,
			index: i,
			key:   key,
			group: group,
			point: pt,
		})
	}
	job.remaining = len(fresh)
	if job.remaining == 0 {
		c.mu.Unlock()
		return job.results, nil
	}
	c.pending = append(c.pending, fresh...)
	c.wakeLocked()
	c.mu.Unlock()

	go c.localFallback(job)

	select {
	case <-job.finished:
		c.mu.Lock()
		err := job.err
		c.mu.Unlock()
		if err != nil {
			return nil, err
		}
		return job.results, nil
	case <-ctx.Done():
		c.abandon(job)
		return nil, ctx.Err()
	}
}

// cacheGet is a nil-tolerant cache read. Callers may hold c.mu (the
// store has its own lock and never calls back).
func (c *Coordinator) cacheGet(key string) ([]byte, string, bool) {
	if c.cfg.Cache == nil {
		return nil, "", false
	}
	return c.cfg.Cache.Get(key)
}

// abandon removes a cancelled job's shards from the queues. A late
// Complete for one of them is ignored (the shard is no longer
// outstanding).
func (c *Coordinator) abandon(job *fleetJob) {
	c.mu.Lock()
	defer c.mu.Unlock()
	kept := c.pending[:0]
	for _, s := range c.pending {
		if s.job != job {
			kept = append(kept, s)
		}
	}
	c.pending = kept
	for sid, s := range c.leased {
		if s.job == job {
			delete(c.leased, sid)
		}
	}
	for _, w := range c.workers {
		kq := w.queue[:0]
		for _, s := range w.queue {
			if s.job != job {
				kq = append(kq, s)
			}
		}
		w.queue = kq
	}
}

// localFallback executes the job's pending shards on the coordinator
// process whenever no live workers exist — at job start, or after every
// worker died mid-sweep — through the same lifetime memo a worker
// holds. It exits when the job finishes or is cancelled.
func (c *Coordinator) localFallback(job *fleetJob) {
	for {
		select {
		case <-job.finished:
			return
		case <-job.ctx.Done():
			return
		case <-time.After(10 * time.Millisecond):
		}
		for {
			c.mu.Lock()
			if c.liveWorkersLocked(time.Now()) > 0 {
				c.mu.Unlock()
				break
			}
			var s *shard
			kept := c.pending[:0]
			for _, p := range c.pending {
				if s == nil && p.job == job {
					s = p
					continue
				}
				kept = append(kept, p)
			}
			c.pending = kept
			if s != nil {
				c.stats.LocalRuns++
			}
			c.mu.Unlock()
			if s == nil {
				break
			}
			res, err := c.memo.run(job.ctx, s.point)
			if err != nil {
				c.finishShard(s, nil, err.Error())
				continue
			}
			if job.ctx.Err() != nil {
				return
			}
			c.finishShard(s, &res, "")
		}
	}
}

// finishShard records one shard outcome: success assembles the result
// (first result wins; duplicates from resurrected workers are ignored),
// failure requeues or — once attempts are exhausted — fails the job.
func (c *Coordinator) finishShard(s *shard, res *experiments.PointResult, errStr string) {
	job := s.job
	c.mu.Lock()
	if job.done[s.index] || job.err != nil {
		c.mu.Unlock()
		return
	}
	if errStr != "" {
		if s.attempts+1 >= c.cfg.MaxAttempts {
			c.stats.Failed++
			job.err = fmt.Errorf("shard %s (%s) failed after %d attempts: %s", s.id, s.point.Label, s.attempts+1, errStr)
			close(job.finished)
			c.mu.Unlock()
			c.logf("fleet: %v", job.err)
			return
		}
		c.requeueLocked(s)
		c.mu.Unlock()
		c.logf("fleet: shard %s attempt %d failed (%s), requeued", s.id, s.attempts, errStr)
		return
	}
	job.results[s.index] = *res
	job.done[s.index] = true
	job.remaining--
	c.stats.Completed++
	finished := job.remaining == 0
	onDone := job.onDone
	c.mu.Unlock()

	if c.cfg.Cache != nil {
		if body, err := json.Marshal(res); err == nil {
			// A failed disk write degrades future cache hits, not this
			// job's correctness.
			_ = c.cfg.Cache.Put(s.key, "done", body)
		}
	}
	if onDone != nil {
		onDone(s.index, *res)
	}
	if finished {
		close(job.finished)
	}
}

// register adds (or refreshes) a worker.
func (c *Coordinator) register(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w := c.workers[id]; w != nil {
		w.lastSeen = time.Now()
	} else {
		c.workers[id] = &workerState{id: id, lastSeen: time.Now()}
	}
	c.logf("fleet: worker %s registered", id)
}

// touch refreshes a worker's heartbeat; false means the worker is
// unknown (timed out or never registered) and must re-register.
func (c *Coordinator) touch(id string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[id]
	if !ok {
		return false
	}
	w.lastSeen = time.Now()
	return true
}

// heartbeat refreshes a worker, records its self-reported unstarted
// backlog, and drains its pending revocations.
func (c *Coordinator) heartbeat(req HeartbeatRequest) (revoked []string, known bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w, ok := c.workers[req.Worker]
	if !ok {
		return nil, false
	}
	w.lastSeen = time.Now()
	w.reported = req.Queued
	revoked = w.revoked
	w.revoked = nil
	return revoked, true
}

// takePendingLocked leases up to max eligible pending shards to
// workerID. The first eligible shard anchors the batch and the rest of
// the batch prefers shards sharing its group — same group = same point
// = one simulation, answered from that worker's memo for the rest.
// Callers hold c.mu.
func (c *Coordinator) takePendingLocked(workerID string, max int, now time.Time) []*shard {
	var anchor *shard
	for _, s := range c.pending {
		if !s.notBefore.After(now) {
			anchor = s
			break
		}
	}
	if anchor == nil {
		return nil
	}
	take := map[*shard]bool{anchor: true}
	n := 1
	if anchor.group != "" {
		for _, s := range c.pending {
			if n >= max {
				break
			}
			if !take[s] && s.group == anchor.group && !s.notBefore.After(now) {
				take[s] = true
				n++
			}
		}
	}
	for _, s := range c.pending {
		if n >= max {
			break
		}
		if !take[s] && !s.notBefore.After(now) {
			take[s] = true
			n++
		}
	}
	batch := make([]*shard, 0, n)
	kept := c.pending[:0]
	for _, s := range c.pending {
		if take[s] {
			batch = append(batch, s)
		} else {
			kept = append(kept, s)
		}
	}
	c.pending = kept
	w := c.workers[workerID]
	for _, s := range batch {
		s.worker = workerID
		c.leased[s.id] = s
		if w != nil {
			w.queue = append(w.queue, s)
		}
		c.stats.Dispatched++
	}
	return batch
}

// stealLocked reassigns the tail half of the longest live queue to an
// idle poller. The head of the victim's queue is what it is executing
// right now, so the tail is the part it has provably not reached; the
// victim's self-reported unstarted depth further clamps the cut. The
// victim learns via the revocation list in the response to its next
// completion (it completes shard by shard), heartbeat or poll; if it
// raced ahead anyway, the duplicate completion is a no-op.
// Callers hold c.mu.
func (c *Coordinator) stealLocked(thief string, max int, now time.Time) []*shard {
	if c.steal < 0 {
		return nil
	}
	var victim *workerState
	for _, w := range c.workers {
		if w.id == thief || now.Sub(w.lastSeen) > c.cfg.HeartbeatTimeout {
			continue
		}
		if len(w.queue) < c.steal || len(w.queue) < 2 {
			continue
		}
		if victim == nil || len(w.queue) > len(victim.queue) {
			victim = w
		}
	}
	if victim == nil {
		return nil
	}
	n := len(victim.queue) / 2
	if victim.reported > 0 && n > victim.reported {
		n = victim.reported
	}
	if n > max {
		n = max
	}
	if n <= 0 {
		return nil
	}
	cut := len(victim.queue) - n
	stolen := append([]*shard(nil), victim.queue[cut:]...)
	victim.queue = victim.queue[:cut]
	if victim.reported >= n {
		victim.reported -= n
	} else {
		victim.reported = 0
	}
	thiefW := c.workers[thief]
	for _, s := range stolen {
		s.worker = thief
		victim.revoked = append(victim.revoked, s.id)
		if thiefW != nil {
			thiefW.queue = append(thiefW.queue, s)
		}
		c.stats.Stolen++
	}
	c.logf("fleet: %s stole %d shards from %s (queue was %d)", thief, n, victim.id, cut+n)
	return stolen
}

// poll leases up to max shards to the worker, holding the request up to
// PollWait when the queue is empty. With nothing pending, an idle
// poller steals from the longest live queue instead of waiting. An
// empty shard list means an empty poll.
func (c *Coordinator) poll(workerID string, max int) ([]Shard, []string, bool) {
	if !c.touch(workerID) {
		return nil, nil, false
	}
	deadline := time.Now().Add(c.cfg.PollWait)
	for {
		now := time.Now()
		c.mu.Lock()
		limit := max
		if limit <= 0 {
			limit = 1
		}
		if limit > c.batch {
			limit = c.batch
		}
		batch := c.takePendingLocked(workerID, limit, now)
		if len(batch) == 0 {
			batch = c.stealLocked(workerID, limit, now)
		}
		var revoked []string
		if w := c.workers[workerID]; w != nil {
			w.lastSeen = now
			revoked = w.revoked
			w.revoked = nil
			if len(batch) > 0 {
				// A worker polls when its local queue is drained; the
				// new batch is its whole unstarted backlog.
				w.reported = len(batch)
			}
		}
		if len(batch) > 0 {
			c.stats.Batches++
			out := make([]Shard, len(batch))
			for i, s := range batch {
				out[i] = Shard{ID: s.id, Key: s.key, Point: s.point}
			}
			c.mu.Unlock()
			return out, revoked, true
		}
		notify := c.notify
		c.mu.Unlock()
		if len(revoked) > 0 {
			return nil, revoked, true // deliver revocations promptly
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, nil, true
		}
		// Backoff'd shards become eligible without a wake; cap the wait.
		if remain > 25*time.Millisecond {
			remain = 25 * time.Millisecond
		}
		select {
		case <-notify:
		case <-time.After(remain):
		case <-c.done:
			return nil, nil, true
		}
	}
}

// dropFromOwnerLocked removes a completed/cancelled shard from its
// current lease holder's queue and, when someone other than the holder
// delivered the result, queues a revocation so the holder skips it.
// Callers hold c.mu.
func (c *Coordinator) dropFromOwnerLocked(s *shard, completedBy string) {
	w := c.workers[s.worker]
	if w == nil {
		return
	}
	for i, q := range w.queue {
		if q == s {
			w.queue = append(w.queue[:i], w.queue[i+1:]...)
			break
		}
	}
	if s.worker != completedBy {
		// A stolen shard finished by its original owner (or the thief
		// finished before the victim noticed the revocation): the
		// current holder need not run it.
		w.revoked = append(w.revoked, s.id)
	}
}

// complete records a batch of shard outcomes. Results are accepted for
// any still-outstanding shard — even from a worker presumed dead whose
// shard was requeued or stolen — because identical points produce
// identical bytes. A completion for a shard that is no longer
// outstanding (already completed by the other party to a steal, or
// cancelled) is a counted no-op: it must not touch merge order, the
// shard cache, or the completion counters a second time. The worker's
// pending revocations ride back on the response.
func (c *Coordinator) complete(req CompleteRequest) (revoked []string, err error) {
	type outcome struct {
		s      *shard
		res    *experiments.PointResult
		errStr string
	}
	var outs []outcome
	c.mu.Lock()
	if w := c.workers[req.Worker]; w != nil {
		w.lastSeen = time.Now()
		w.reported = req.Queued
		revoked = w.revoked
		w.revoked = nil
	}
	for _, sr := range req.Results {
		s, ok := c.leased[sr.Shard]
		if ok {
			delete(c.leased, sr.Shard)
			c.dropFromOwnerLocked(s, req.Worker)
		} else {
			// Maybe it was requeued after a presumed death: pull it from
			// pending so the late result still counts.
			kept := c.pending[:0]
			for _, p := range c.pending {
				if !ok && p.id == sr.Shard {
					s, ok = p, true
					continue
				}
				kept = append(kept, p)
			}
			c.pending = kept
		}
		if !ok {
			c.stats.DupCompletes++
			continue
		}
		if sr.Error == "" && sr.Result == nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("complete for %s carries neither result nor error", sr.Shard)
		}
		outs = append(outs, outcome{s, sr.Result, sr.Error})
	}
	c.mu.Unlock()
	for _, o := range outs {
		c.finishShard(o.s, o.res, o.errStr)
	}
	return revoked, nil
}

// Mount registers the fleet's REST surface on mux.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/v1/fleet/register", c.handleRegister)
	mux.HandleFunc("/v1/fleet/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("/v1/fleet/poll", c.handlePoll)
	mux.HandleFunc("/v1/fleet/complete", c.handleComplete)
}

func decodeInto(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return false
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
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
	if req.ID == "" {
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
	var req HeartbeatRequest
	if !decodeInto(w, r, &req) {
		return
	}
	revoked, known := c.heartbeat(req)
	if !known {
		http.Error(w, "unknown worker; re-register", http.StatusGone)
		return
	}
	writeJSON(w, HeartbeatResponse{Revoked: revoked})
}

func (c *Coordinator) handlePoll(w http.ResponseWriter, r *http.Request) {
	var req PollRequest
	if !decodeInto(w, r, &req) {
		return
	}
	shards, revoked, known := c.poll(req.Worker, req.Max)
	if !known {
		http.Error(w, "unknown worker; re-register", http.StatusGone)
		return
	}
	writeJSON(w, PollResponse{Shards: shards, Revoked: revoked})
}

func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if !decodeInto(w, r, &req) {
		return
	}
	revoked, err := c.complete(req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, HeartbeatResponse{Revoked: revoked})
}
