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
	Parallel    int    // execution slots: shards leased and run at once (default 1)
	Client      *http.Client
	Logf        func(format string, args ...any)
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
	if cfg.Client == nil {
		cfg.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return cfg
}

// Worker leases shards from a coordinator, one per execution slot, and
// executes them. It owns no listener: registration, polling, completion,
// and heartbeats are all HTTP requests it initiates, so a worker runs
// from anywhere that can reach the coordinator. It executes and keeps
// nothing: the coordinator owns reuse for the whole fleet and leases a
// distinct point once.
type Worker struct {
	cfg WorkerConfig
}

// NewWorker builds a worker (Run does the work).
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg.withDefaults()}
}

// ID returns the worker's identity.
func (w *Worker) ID() string { return w.cfg.ID }

func (w *Worker) logf(format string, args ...any) {
	if w.cfg.Logf != nil {
		w.cfg.Logf(format, args...)
	}
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

// retry calls try until it succeeds or ctx ends, sleeping a doubling
// backoff (50ms up to 2s) between attempts.
func (w *Worker) retry(ctx context.Context, what string, try func() error) error {
	backoff := 50 * time.Millisecond
	for {
		err := try()
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		w.logf("fleet worker %s: %s failed (%v), retrying in %s", w.cfg.ID, what, err, backoff)
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

// register announces the worker, retrying until it succeeds or ctx ends
// (the coordinator may simply not be up yet), and returns the heartbeat
// interval the coordinator asks for.
func (w *Worker) register(ctx context.Context) (time.Duration, error) {
	var resp RegisterResponse
	if err := w.retry(ctx, "register", func() error {
		_, err := w.post(ctx, "/v1/fleet/register", RegisterRequest{ID: w.cfg.ID}, &resp)
		return err
	}); err != nil {
		return 0, err
	}
	interval, err := time.ParseDuration(resp.HeartbeatInterval)
	if err != nil || interval <= 0 {
		interval = time.Second
	}
	w.logf("fleet worker %s: registered with %s (heartbeat %s)", w.cfg.ID, w.cfg.Coordinator, interval)
	return interval, nil
}

// Run registers and then leases, executes and completes shards on
// Parallel independent slots until ctx ends. A 410 from the coordinator
// (it forgot us — usually a coordinator restart or a heartbeat gap)
// triggers transparent re-registration.
func (w *Worker) Run(ctx context.Context) error {
	interval, err := w.register(ctx)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	wg.Add(1 + w.cfg.Parallel)
	// Heartbeat independently of the slots: a long-running shard must
	// not look like a dead worker.
	go func() {
		defer wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if code, _ := w.post(ctx, "/v1/fleet/heartbeat", WorkerRequest{Worker: w.cfg.ID}, nil); code == http.StatusGone {
					_, _ = w.register(ctx) // fails only when ctx ends
				}
			}
		}
	}()
	for i := 0; i < w.cfg.Parallel; i++ {
		go func() {
			defer wg.Done()
			w.slotLoop(ctx, i)
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// slotLoop is one execution slot: poll for a shard, execute it, post
// the result, and go on executing whatever lease each completion
// response carries; only an empty response sends the slot back to
// polling. The slot never holds a shard it is not executing.
func (w *Worker) slotLoop(ctx context.Context, slot int) {
	for ctx.Err() == nil {
		for s := w.poll(ctx, slot); s != nil; {
			s = w.complete(ctx, w.execute(ctx, slot, *s))
		}
	}
}

// poll long-polls for one shard, retrying (and re-registering after a
// 410) until the coordinator answers or ctx ends. Nil is an empty poll.
func (w *Worker) poll(ctx context.Context, slot int) *Shard {
	var resp LeaseResponse
	_ = w.retry(ctx, "poll", func() error {
		code, err := w.post(ctx, "/v1/fleet/poll", WorkerRequest{Worker: w.cfg.ID, Slot: slot}, &resp)
		if code == http.StatusGone {
			_, _ = w.register(ctx) // fails only when ctx ends
		}
		return err
	}) // fails only when ctx ends, and then the slot exits
	return resp.Shard
}

// complete delivers one shard outcome and returns the next lease the
// response carries, if any. It retries network errors and 5xx answers
// until the coordinator has answered or ctx ends: the heartbeat keeps
// this worker alive, so a result it gave up on would leave its shard
// leased and never requeued — and a slot that cannot reach the
// coordinator cannot lease anything else anyway. A 4xx is the
// coordinator's final answer: a refused result is posted once more as
// the shard's failure, carrying the refusal, which the coordinator's
// attempt accounting requeues or fails; a refused failure is dropped.
func (w *Worker) complete(ctx context.Context, out CompleteRequest) *Shard {
	var resp LeaseResponse
	_ = w.retry(ctx, "complete of "+out.Shard, func() error {
		code, err := w.post(ctx, "/v1/fleet/complete", out, &resp)
		if code < 400 || code >= 500 {
			return err
		}
		if out.Result == nil {
			w.logf("fleet worker %s: failure of shard %s refused: %v", w.cfg.ID, out.Shard, err)
			return nil
		}
		out.Result, out.Error = nil, "completion refused: "+err.Error()
		return err
	}) // fails only when ctx ends, and then the slot exits
	return resp.Shard
}

// execute simulates one shard, always to the end: if ctx ends meanwhile
// the worker is stopping, and complete posts nothing under a dead ctx.
func (w *Worker) execute(ctx context.Context, slot int, s Shard) CompleteRequest {
	out := CompleteRequest{Worker: w.cfg.ID, Slot: slot, Shard: s.ID}
	res, err := experiments.RunPointForked(ctx, s.Point, nil)
	if err != nil {
		out.Error = err.Error()
	} else {
		out.Result = &res
	}
	w.logf("fleet worker %s: shard %s (%s) done", w.cfg.ID, s.ID, s.Point.Label)
	return out
}
