package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"coherencesim/internal/experiments"
)

// WorkerConfig tunes a worker process.
type WorkerConfig struct {
	Coordinator string // coordinator base URL, e.g. http://host:8377
	ID          string // stable worker identity (default hostname-pid)
	Parallel    int    // concurrent shard executions within a batch (default 1)
	// Batch is how many shards each poll requests (default 8; the
	// coordinator clamps to its own cap). 1 is per-point dispatch.
	Batch int
	// ShardDelay injects an artificial pause before every shard
	// execution: fault injection for steal tests and a stand-in for a
	// heterogeneous (slow) fleet member in benchmarks.
	ShardDelay time.Duration
	Client     *http.Client
	Logf       func(format string, args ...any)
}

func (cfg WorkerConfig) withDefaults() WorkerConfig {
	cfg.Coordinator = strings.TrimRight(cfg.Coordinator, "/")
	if cfg.ID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		cfg.ID = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if cfg.Parallel <= 0 {
		cfg.Parallel = 1
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 8
	}
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return cfg
}

// Worker pulls shard batches from a coordinator and executes them. It
// owns no listener: registration, polling, completion, and heartbeats
// are all HTTP requests it initiates, so a worker runs from anywhere
// that can reach the coordinator. One result memo lives as long as the
// worker, so a batch stream repeating a warm_fork point simulates it
// once, not once per shard.
type Worker struct {
	cfg       WorkerConfig
	heartbeat time.Duration
	memo      pointMemo

	mu      sync.Mutex
	queued  int             // unstarted shards in the current batch
	revoked map[string]bool // coordinator-revoked shard IDs, dropped before execution
	dropped int             // shards skipped because a revocation arrived first
}

// NewWorker builds a worker (Run does the work).
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg.withDefaults(), heartbeat: time.Second, revoked: make(map[string]bool)}
}

// maxWarmCheckpoints bounds a lifetime result memo, in points.
const maxWarmCheckpoints = 256

// pointMemo runs shards through a lifetime result memo — one per
// worker, one for the coordinator's zero-worker fallback. A long stream
// of distinct points would otherwise pin every result ever computed, so
// past maxWarmCheckpoints entries the whole memo is dropped; that is
// safe because the simulator is deterministic: the next repeat
// re-simulates to the same bytes.
type pointMemo struct {
	mu    sync.Mutex
	forks *experiments.WarmForkCache
}

func (m *pointMemo) run(ctx context.Context, pt experiments.Point) (experiments.PointResult, error) {
	m.mu.Lock()
	if m.forks == nil || m.forks.Checkpoints() > maxWarmCheckpoints {
		m.forks = experiments.NewWarmForkCache()
	}
	forks := m.forks
	m.mu.Unlock()
	return experiments.RunPointForked(ctx, pt, forks)
}

// ID returns the worker's identity.
func (w *Worker) ID() string { return w.cfg.ID }

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
}

func (w *Worker) queuedDepth() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.queued
}

func (w *Worker) setQueued(n int) {
	w.mu.Lock()
	w.queued = n
	w.mu.Unlock()
}

func (w *Worker) decQueued() {
	w.mu.Lock()
	if w.queued > 0 {
		w.queued--
	}
	w.mu.Unlock()
}

// markRevoked records coordinator revocations for shards this worker
// still holds; they are skipped when their turn comes.
func (w *Worker) markRevoked(ids []string) {
	if len(ids) == 0 {
		return
	}
	w.mu.Lock()
	for _, id := range ids {
		w.revoked[id] = true
	}
	w.mu.Unlock()
	w.logf("fleet worker %s: %d shards revoked", w.cfg.ID, len(ids))
}

// takeRevoked consumes a revocation for id, reporting whether the shard
// should be skipped.
func (w *Worker) takeRevoked(id string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.revoked[id] {
		delete(w.revoked, id)
		w.dropped++
		return true
	}
	return false
}

func (w *Worker) post(ctx context.Context, path string, req, resp any) (int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpResp, err := w.cfg.Client.Do(httpReq)
	if err != nil {
		return 0, err
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode >= 400 {
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 512))
		return httpResp.StatusCode, fmt.Errorf("%s: %s: %s", path, httpResp.Status, strings.TrimSpace(string(msg)))
	}
	if resp != nil {
		return httpResp.StatusCode, json.NewDecoder(httpResp.Body).Decode(resp)
	}
	return httpResp.StatusCode, nil
}

// register announces the worker, retrying with backoff until it
// succeeds or ctx ends (the coordinator may simply not be up yet).
func (w *Worker) register(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for {
		var resp RegisterResponse
		_, err := w.post(ctx, "/v1/fleet/register", RegisterRequest{ID: w.cfg.ID}, &resp)
		if err == nil {
			if d, perr := time.ParseDuration(resp.HeartbeatInterval); perr == nil && d > 0 {
				w.heartbeat = d
			}
			w.logf("fleet worker %s: registered with %s (heartbeat %s)", w.cfg.ID, w.cfg.Coordinator, w.heartbeat)
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.logf("fleet worker %s: register failed (%v), retrying in %s", w.cfg.ID, err, backoff)
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		if backoff < 2*time.Second {
			backoff *= 2
		}
	}
}

// Run registers and then polls/executes/completes batches until ctx
// ends. A 410 from the coordinator (it forgot us — usually a
// coordinator restart or a heartbeat gap) triggers transparent
// re-registration. Completion and heartbeat responses deliver mid-batch
// revocations, so a straggling worker learns that its tail was stolen
// before it starts the next shard.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}

	// Heartbeat independently of the batch loop: a long-running shard
	// must not look like a dead worker.
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go func() {
		t := time.NewTicker(w.heartbeat)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				var resp HeartbeatResponse
				code, err := w.post(hbCtx, "/v1/fleet/heartbeat", HeartbeatRequest{Worker: w.cfg.ID, Queued: w.queuedDepth()}, &resp)
				if err != nil && code == http.StatusGone {
					_ = w.register(hbCtx)
					continue
				}
				if err == nil {
					w.markRevoked(resp.Revoked)
				}
			}
		}
	}()

	w.batchLoop(ctx)
	return ctx.Err()
}

func (w *Worker) batchLoop(ctx context.Context) {
	for ctx.Err() == nil {
		var resp PollResponse
		code, err := w.post(ctx, "/v1/fleet/poll", PollRequest{Worker: w.cfg.ID, Max: w.cfg.Batch}, &resp)
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			if code == http.StatusGone {
				if w.register(ctx) != nil {
					return
				}
				continue
			}
			w.logf("fleet worker %s: poll failed: %v", w.cfg.ID, err)
			select {
			case <-ctx.Done():
				return
			case <-time.After(500 * time.Millisecond):
			}
			continue
		}
		w.markRevoked(resp.Revoked)
		if len(resp.Shards) == 0 {
			continue // empty poll; ask again
		}
		w.runBatch(ctx, resp.Shards)
	}
}

// runBatch executes one leased batch (up to Parallel shards at a time),
// completing each shard as it finishes: the coordinator sees the queue
// shrink and the response tells the worker which of its remaining
// shards were stolen meanwhile. Shards revoked before their turn are
// dropped; the thief reports them.
func (w *Worker) runBatch(ctx context.Context, shards []Shard) {
	w.setQueued(len(shards))
	defer w.setQueued(0)

	sem := make(chan struct{}, w.cfg.Parallel)
	var wg sync.WaitGroup
	for i := range shards {
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break
		}
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(s Shard) {
			defer wg.Done()
			defer func() { <-sem }()
			w.decQueued()
			if w.takeRevoked(s.ID) {
				w.logf("fleet worker %s: shard %s dropped (revoked)", w.cfg.ID, s.ID)
				return
			}
			if r := w.executeShard(ctx, s); r != nil {
				w.complete(ctx, *r)
			}
		}(shards[i])
	}
	wg.Wait()
}

// complete delivers one shard outcome with a few retries — losing it
// costs a full re-simulation on another worker — and records the
// revocations the response carries.
func (w *Worker) complete(ctx context.Context, r ShardResult) {
	req := CompleteRequest{Worker: w.cfg.ID, Results: []ShardResult{r}, Queued: w.queuedDepth()}
	for attempt := 0; attempt < 3; attempt++ {
		var resp HeartbeatResponse
		if _, err := w.post(ctx, "/v1/fleet/complete", req, &resp); err == nil {
			w.markRevoked(resp.Revoked)
			return
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(time.Duration(attempt+1) * 200 * time.Millisecond):
		}
	}
	w.logf("fleet worker %s: failed to deliver the result of shard %s", w.cfg.ID, r.Shard)
}

func (w *Worker) executeShard(ctx context.Context, s Shard) *ShardResult {
	if w.cfg.ShardDelay > 0 {
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(w.cfg.ShardDelay):
		}
	}
	sr := &ShardResult{Shard: s.ID}
	res, err := w.memo.run(ctx, s.Point)
	if err != nil {
		sr.Error = err.Error()
	} else {
		if ctx.Err() != nil {
			return nil // cancelled mid-run: the result is not trustworthy
		}
		sr.Result = &res
	}
	w.logf("fleet worker %s: shard %s (%s) done", w.cfg.ID, s.ID, s.Point.Label)
	return sr
}
