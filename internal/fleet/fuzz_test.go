package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"coherencesim/internal/experiments"
)

// fuzzRig is a coordinator in mid-sweep for one foreign body to hit: job
// j1 asks for two points, the first of them twice, so shard j1#0 (two
// slots, leased to worker w's slot 0) and shard j1#1 (pending) are
// outstanding. w stays live for the whole body: the heartbeat timeout
// is a minute.
type fuzzRig struct {
	c   *Coordinator
	job *job
}

func newFuzzRig(t *testing.T) *fuzzRig {
	t.Helper()
	c := NewCoordinator(Config{HeartbeatTimeout: time.Minute})
	t.Cleanup(c.Close)
	register(c, "w")
	pts := quickPoints(2)
	ctx, cancel := context.WithCancel(context.Background())
	wait := runAsync(t, c, ctx, append(pts, pts[0]), nil)
	t.Cleanup(func() {
		cancel()
		wait()
	})
	r := &fuzzRig{c: c}
	for r.job == nil {
		runtime.Gosched()
		c.mu.Lock()
		if len(c.q.pending) == 2 {
			r.job = c.q.pending[0].slots[0].job
		}
		c.mu.Unlock()
	}
	if lease := leaseAt(t, c, holder{"w", 0}, time.Now()); lease.ID != "j1#0" {
		t.Fatalf("rig leased %s first, want j1#0", lease.ID)
	}
	return r
}

// state renders everything a refused request must leave alone: both
// queues, the in-flight map, the counters, the memo and the job.
func (r *fuzzRig) state() string {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	var lines []string
	for i, s := range r.c.q.pending {
		lines = append(lines, fmt.Sprintf("pending[%d] %s attempts %d slots %v", i, s.id, s.attempts, s.slots))
	}
	for i, s := range r.c.q.leased {
		lines = append(lines, fmt.Sprintf("leased[%d] %s to %v attempts %d slots %v", i, s.id, s.holder, s.attempts, s.slots))
	}
	for key, s := range r.c.q.inflight {
		lines = append(lines, fmt.Sprintf("inflight %s is %s", key, s.id))
	}
	slices.Sort(lines)
	return fmt.Sprintf("%s\nstats %+v\nmemo %d\njob remaining %d err %v results %+v",
		strings.Join(lines, "\n"), r.c.q.stats, r.c.cfg.Memo.Checkpoints(), r.job.remaining, r.job.err, r.job.results)
}

// outstanding counts pending and leased shards and checks the in-flight
// map is exactly those.
func (r *fuzzRig) outstanding(t *testing.T) int {
	t.Helper()
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	n := len(r.c.q.pending) + len(r.c.q.leased)
	if len(r.c.q.inflight) != n {
		t.Fatalf("%d keys in flight for %d outstanding shards", len(r.c.q.inflight), n)
	}
	return n
}

// counters reads the raw counters (Stats derives two more from them).
func (r *fuzzRig) counters() Stats {
	r.c.mu.Lock()
	defer r.c.mu.Unlock()
	return r.c.q.stats
}

func post(h http.HandlerFunc, path string, body []byte) int {
	rec := httptest.NewRecorder()
	h(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code
}

// FuzzCompleteBody: whatever bytes reach /v1/fleet/complete are either
// refused with a 4xx that leaves the coordinator exactly as it was, or
// accepted as one outcome of one shard — merged, requeued, or counted as
// a duplicate — and nothing more.
func FuzzCompleteBody(f *testing.F) {
	res, err := experiments.RunPointForked(context.Background(), quickPoints(1)[0], nil)
	if err != nil {
		f.Fatal(err)
	}
	good, err := json.Marshal(CompleteRequest{Worker: "w", Shard: "j1#0", Result: &res})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Fuzz(func(t *testing.T, body []byte) {
		r := newFuzzRig(t)
		before, was, st0 := r.state(), r.outstanding(t), r.counters()
		code := post(serve(r.c.handleComplete), "/v1/fleet/complete", body)
		st := r.counters()
		switch {
		case code >= 400 && code < 500:
			if after := r.state(); after != before {
				t.Fatalf("HTTP %d changed the coordinator:\n%s\n-- was --\n%s", code, after, before)
			}
		case code == http.StatusOK:
			outcomes := st.Completed + st.Reassigned + st.Failed + st.DupCompletes - st0.Completed - st0.Reassigned - st0.Failed - st0.DupCompletes
			if gone := was - r.outstanding(t); outcomes != 1 || gone < 0 || gone > 1 || uint64(gone) != st.Completed-st0.Completed {
				t.Fatalf("HTTP 200 recorded %d outcomes and removed %d shards: %+v after %+v", outcomes, gone, st, st0)
			}
			if n := r.c.cfg.Memo.Checkpoints(); uint64(n) != st.Completed {
				t.Fatalf("the memo holds %d points after %d completions", n, st.Completed)
			}
		default:
			t.Fatalf("HTTP %d", code)
		}
	})
}

// FuzzPollBody: whatever bytes reach /v1/fleet/poll are either refused
// with a 4xx that leaves the coordinator exactly as it was, or answered
// with at most one lease; a poll never settles anything.
func FuzzPollBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		r := newFuzzRig(t)
		before, was, st0 := r.state(), r.outstanding(t), r.counters()
		code := post(serve(r.c.handlePoll), "/v1/fleet/poll", body)
		st := r.counters()
		switch {
		case code >= 400 && code < 500:
			if after := r.state(); after != before {
				t.Fatalf("HTTP %d changed the coordinator:\n%s\n-- was --\n%s", code, after, before)
			}
		case code == http.StatusOK:
			leases := st.Dispatched - st0.Dispatched
			st.Dispatched = st0.Dispatched
			if leases > 1 || st != st0 || r.outstanding(t) != was {
				t.Fatalf("HTTP 200 handed out %d leases and left %+v after %+v", leases, st, st0)
			}
		default:
			t.Fatalf("HTTP %d", code)
		}
	})
}

// TestOversizedBodyRefused: a request past maxRequestBody is refused
// like any other malformed one, not buffered.
func TestOversizedBodyRefused(t *testing.T) {
	r := newFuzzRig(t)
	before := r.state()
	body := []byte(`{"worker":"w","shard":"j1#0","error":"` + strings.Repeat("x", maxRequestBody) + `"}`)
	if code := post(serve(r.c.handleComplete), "/v1/fleet/complete", body); code != http.StatusBadRequest {
		t.Fatalf("oversized completion HTTP %d, want 400", code)
	}
	if after := r.state(); after != before {
		t.Errorf("the oversized completion changed the coordinator:\n%s\n-- was --\n%s", after, before)
	}
}
