package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"time"

	"coherencesim/internal/experiments"
)

// Config tunes the coordinator.
type Config struct {
	// HeartbeatTimeout is how long a worker may go silent before its
	// leased shards are reassigned (default 5s).
	HeartbeatTimeout time.Duration
	// Memo answers before anything is leased and keeps every accepted
	// result: the daemon's, shared with its local executor, or (nil) the
	// coordinator's own. Its durable layer, if any (the daemon's store),
	// answers points memory does not hold — after a restart, an eviction
	// — and receives every accepted result.
	Memo *experiments.PointMemo
	Logf func(format string, args ...any)
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
	LocalRuns    uint64 // shards executed by the coordinator itself while no worker was live
}

// Coordinator is the lease queue's shell: it owns the lock, the HTTP
// handlers, the long-poll wake-ups, the reaper ticker and the local
// runners, and carries out what each transition of the queue returns.
type Coordinator struct {
	cfg Config

	mu     sync.Mutex
	q      *leaseQueue
	notify chan struct{} // closed and replaced when work arrives
	local  int           // local runners executing shards
	closed bool

	done    chan struct{}
	running sync.WaitGroup // the reaper and the local runners
}

// caller is the RunPoints call a job reports to.
type caller struct {
	finished chan struct{} // closed once the job has ended
	onDone   func(index int, r experiments.PointResult, took time.Duration)
}

// NewCoordinator builds a coordinator and starts its reaper.
func NewCoordinator(cfg Config) *Coordinator {
	if cfg.HeartbeatTimeout <= 0 {
		cfg.HeartbeatTimeout = 5 * time.Second
	}
	if cfg.Memo == nil {
		cfg.Memo = experiments.NewPointMemo(experiments.PointStore(nil))
	}
	c := &Coordinator{
		cfg:    cfg,
		q:      newLeaseQueue(cfg.HeartbeatTimeout),
		notify: make(chan struct{}),
		done:   make(chan struct{}),
	}
	c.running.Add(1)
	go func() { // the reaper
		defer c.running.Done()
		t := time.NewTicker(max(cfg.HeartbeatTimeout/4, 5*time.Millisecond))
		defer t.Stop()
		for {
			select {
			case <-c.done:
				return
			case <-t.C:
				c.do(c.q.reap)
			}
		}
	}()
	return c
}

// Close stops the reaper and the local runners (each finishes the shard
// it is executing), releases pollers and waits for them all.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		close(c.done)
	}
	c.mu.Unlock()
	c.running.Wait()
}

// LiveWorkers counts workers heard from within the heartbeat timeout.
func (c *Coordinator) LiveWorkers() int { return c.Stats().WorkersLive }

// Stats snapshots the counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.q.stats
	s.Batches, s.WorkersLive = s.Dispatched, c.q.live(time.Now())
	return s
}

// do runs one transition of the queue under c.mu and carries out what
// it returns: under the lock it wakes pollers and starts local runners;
// after it, it logs, files an accepted result in the memo and reports
// to the callers, whose code may take the lock itself.
func (c *Coordinator) do(transition func(now time.Time) effects) {
	c.mu.Lock()
	now := time.Now()
	eff := transition(now)
	if eff.wake {
		close(c.notify)
		c.notify = make(chan struct{})
	}
	for !c.closed && c.local < runtime.GOMAXPROCS(0) {
		s := c.q.takeLocal(now)
		if s == nil {
			break
		}
		c.local++
		c.running.Add(1)
		go c.runLocal(s)
	}
	c.mu.Unlock()
	for _, n := range eff.notes {
		if c.cfg.Logf != nil {
			c.cfg.Logf("%s", n)
		}
	}
	if s := eff.put; s != nil {
		// Out of both queues, s is this call's alone: another outcome for
		// it is a no-op. It stays in flight by key while the memo files
		// the result — a store write, outside c.mu — so a request for the
		// point meanwhile attaches to it instead of leasing it again.
		c.cfg.Memo.Put(s.point.Unlabeled(), eff.result)
		c.do(func(now time.Time) effects { return c.q.filed(s, eff.result, now) })
	}
	for _, sl := range eff.filled {
		if onDone := sl.job.caller.onDone; onDone != nil {
			onDone(sl.index, sl.job.results[sl.index], eff.took)
		}
	}
	for _, j := range eff.ended {
		close(j.caller.finished)
	}
}

// runLocal executes one shard on the coordinator process, taken while
// no worker was live — up to GOMAXPROCS at once, so distribution is an
// acceleration, never a dependency. It simulates directly (RunPoints
// asked the memo before the shard existed) and to the end: other jobs
// may be attached to the shard. Settling it starts the next.
func (c *Coordinator) runLocal(s *shard) {
	defer c.running.Done()
	res, err := s.point.Simulate(nil)
	errStr := ""
	if err != nil {
		errStr = err.Error()
	}
	c.do(func(now time.Time) effects {
		c.local--
		return c.q.settle(s.id, &res, errStr, now)
	})
}

// RunPoints blocks until every point has a result (returned in
// submission order), the context is cancelled, or a shard exhausts its
// attempts. A point is answered by the memo (memory, else its durable
// layer), else it attaches to the shard already outstanding for its key — this
// batch's or another job's — and only else gets a shard of its own, so a
// distinct point crosses the fleet once. onDone, when non-nil, observes
// every result as it lands (any order), however it was answered, with
// the time from its shard's lease to acceptance — whoever ran it — or 0
// for a point the memo answered. With no live workers the coordinator
// executes pending shards itself.
func (c *Coordinator) RunPoints(ctx context.Context, pts []experiments.Point, onDone func(index int, r experiments.PointResult, took time.Duration)) ([]experiments.PointResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	j := &job{results: make([]experiments.PointResult, len(pts)), caller: caller{make(chan struct{}), onDone}}
	// Before the lock (the durable layer is a file read): what is known.
	keys := make([]string, len(pts)) // left empty for a point answered here
	var cacheHits uint64
	for i, pt := range pts {
		r, ok, loaded := c.cfg.Memo.Get(pt.Unlabeled())
		if loaded {
			cacheHits++
		}
		if ok {
			j.results[i] = r
		} else {
			keys[i] = pt.Key()
		}
	}
	c.do(func(time.Time) effects {
		for i, pt := range pts {
			// Filing puts a result in the memo before its key leaves
			// inflight, so one that was in neither above is in one now.
			if r, ok := c.cfg.Memo.Peek(pt.Unlabeled()); keys[i] != "" && ok {
				j.results[i], keys[i] = r, ""
			}
		}
		return c.q.submit(j, pts, keys, cacheHits)
	})
	select {
	case <-j.caller.finished: // j.err, if any, was set before the close
		if j.err != nil {
			return nil, j.err
		}
		return j.results, nil
	case <-ctx.Done():
		c.mu.Lock()
		c.q.drop(j, ctx.Err())
		c.mu.Unlock()
		return nil, ctx.Err()
	}
}

const pollWait = time.Second // how long an empty poll is held open, at most half the heartbeat timeout

// poll leases one shard to a worker's slot, holding the request up to
// pollWait while nothing is eligible. A nil lease is an empty poll.
func (c *Coordinator) poll(h holder) (lease *Shard, known bool) {
	deadline := time.Now().Add(min(pollWait, c.cfg.HeartbeatTimeout/2))
	for {
		c.mu.Lock()
		lease, known = c.q.lease(h, time.Now())
		notify := c.notify
		c.mu.Unlock()
		remain := time.Until(deadline)
		if lease != nil || !known || remain <= 0 {
			return lease, known
		}
		// Backoff'd shards become eligible without a wake; cap the wait.
		select {
		case <-notify:
		case <-time.After(min(remain, 25*time.Millisecond)):
		case <-c.done:
			return nil, true
		}
	}
}

// complete settles one outcome and answers with the slot's next lease.
func (c *Coordinator) complete(req CompleteRequest) (next *Shard, err error) {
	c.do(func(now time.Time) (eff effects) {
		next, eff, err = c.q.complete(req, now)
		return eff
	})
	return next, err
}

// Mount registers the fleet's REST surface on mux.
func (c *Coordinator) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/v1/fleet/register", serve(c.handleRegister))
	mux.HandleFunc("/v1/fleet/heartbeat", serve(c.handleHeartbeat))
	mux.HandleFunc("/v1/fleet/poll", serve(c.handlePoll))
	mux.HandleFunc("/v1/fleet/complete", serve(c.handleComplete))
}

// maxRequestBody bounds a worker's request: a completion is 1-7 KB at
// quick scale, ~350 KB at paper scale with its metrics series.
const maxRequestBody = 8 << 20

// errGone answers a worker the coordinator does not know: it must
// register again.
var errGone = errors.New("unknown worker; re-register")

// serve decodes a worker's request into a Req and answers with what
// handle returns, or with its error: 410 for errGone, else 400.
func serve[Req any](handle func(Req) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req Req
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
			http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
			return
		}
		resp, err := handle(req)
		switch {
		case errors.Is(err, errGone):
			http.Error(w, err.Error(), http.StatusGone)
		case err != nil:
			http.Error(w, err.Error(), http.StatusBadRequest)
		default:
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(resp)
		}
	}
}

func (c *Coordinator) handleRegister(req RegisterRequest) (any, error) {
	if req.ID == "" {
		return nil, errors.New("worker id required")
	}
	c.do(func(now time.Time) effects { return c.q.register(req.ID, now) })
	return RegisterResponse{ID: req.ID, HeartbeatInterval: (c.cfg.HeartbeatTimeout / 3).String()}, nil
}

func (c *Coordinator) handleHeartbeat(req WorkerRequest) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.q.heartbeat(req.Worker, time.Now()) {
		return nil, errGone
	}
	return struct{}{}, nil
}

func (c *Coordinator) handlePoll(req WorkerRequest) (any, error) {
	lease, known := c.poll(holder{req.Worker, req.Slot})
	if !known {
		return nil, errGone
	}
	return LeaseResponse{Shard: lease}, nil
}

func (c *Coordinator) handleComplete(req CompleteRequest) (any, error) {
	next, err := c.complete(req)
	return LeaseResponse{Shard: next}, err
}
