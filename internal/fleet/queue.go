package fleet

import (
	"fmt"
	"slices"
	"time"

	"coherencesim/internal/experiments"
)

const (
	maxAttempts  = 3                      // executions per shard before every job attached to it fails
	retryBackoff = 250 * time.Millisecond // a requeued shard's delay, doubling per attempt up to 8x
)

// holder is who executes a leased shard: one execution slot of one
// worker or, as the zero holder (no worker ID is empty), the local runners.
type holder struct {
	worker string
	slot   int
}

// A shard is one distinct point on its way to a result: on the pending
// FIFO or in the leased list (someone is executing it), and in inflight
// by key either way — and still in inflight while an accepted result is
// filed in the memo. Every slot that asks for the point meanwhile is
// attached to it, to be filled when it settles.
type shard struct {
	id        string
	key       string
	point     experiments.Point
	slots     []slot
	attempts  int
	notBefore time.Time
	holder    holder    // meaningful only while leased
	leasedAt  time.Time // when it was last leased
}

type slot struct { // one place in one job's results
	job   *job
	index int
}

// job is one RunPoints call's results as the queue assembles them.
type job struct {
	results   []experiments.PointResult
	remaining int    // slots not yet filled
	err       error  // why the job ended early: a shard's failure, or its caller's
	caller    caller // the shell's, to report to; the queue never touches it
}

// effects is what a transition leaves to the shell.
type effects struct {
	put    *shard                  // accepted: file result in the memo, then call filed
	result experiments.PointResult // put's result
	filled []slot                  // slots filled, in job.results[index]: report them
	took   time.Duration           // filled's shard's time from its lease to acceptance; 0 for memo answers
	ended  []*job                  // jobs finished or failed: release their callers
	wake   bool                    // a shard joined the pending queue
	notes  []string                // log lines
}

// leaseQueue is the coordinator's state machine with nothing else in it:
// no goroutine, channel, lock, clock, HTTP or memo I/O. Time arrives as
// an argument, and every transition returns what the shell
// (coordinator.go) must do next, so the same code runs under the
// daemon's mutex and under the exhaustive walk of queue_walk_test.go.
type leaseQueue struct {
	timeout  time.Duration        // a worker silent for longer is dead
	workers  map[string]time.Time // worker ID -> when it was last heard from
	pending  []*shard             // FIFO, subject to per-shard notBefore
	leased   []*shard             // in lease order
	inflight map[string]*shard    // every pending, leased or filing shard, by point key
	seq      int                  // jobs submitted
	stats    Stats
}

func newLeaseQueue(timeout time.Duration) *leaseQueue {
	return &leaseQueue{
		timeout:  timeout,
		workers:  make(map[string]time.Time),
		inflight: make(map[string]*shard),
	}
}

// register adds (or refreshes) a worker.
func (q *leaseQueue) register(id string, now time.Time) effects {
	q.workers[id] = now
	return effects{notes: []string{fmt.Sprintf("fleet: worker %s registered", id)}}
}

// heartbeat refreshes a worker; false means it is unknown (timed out or
// never registered) and must re-register.
func (q *leaseQueue) heartbeat(id string, now time.Time) bool {
	_, known := q.workers[id]
	if known {
		q.workers[id] = now
	}
	return known
}

// live counts the workers heard from within the timeout.
func (q *leaseQueue) live(now time.Time) int {
	n := 0
	for _, seen := range q.workers {
		if now.Sub(seen) <= q.timeout {
			n++
		}
	}
	return n
}

// submit attaches j's unanswered points each to the shard outstanding
// for its key, or to a new pending one. keys[i] is empty for a point the
// memo answered, whose result is already in j.results: it is reported
// filled at once. cacheHits is how many answers came from the memo's
// durable layer.
func (q *leaseQueue) submit(j *job, pts []experiments.Point, keys []string, cacheHits uint64) effects {
	q.seq++
	var eff effects
	fresh := 0
	for i, key := range keys {
		if key == "" {
			eff.filled = append(eff.filled, slot{j, i})
			continue
		}
		s := q.inflight[key]
		if s == nil {
			s = &shard{id: fmt.Sprintf("j%d#%d", q.seq, i), key: key, point: pts[i]}
			q.inflight[key] = s
			q.pending = append(q.pending, s)
			fresh++
		}
		s.slots = append(s.slots, slot{j, i})
		j.remaining++
	}
	q.stats.CacheHits += cacheHits
	q.stats.Coalesced += uint64(len(pts)-fresh) - cacheHits
	eff.wake = fresh > 0
	if j.remaining == 0 {
		eff.ended = []*job{j}
	}
	return eff
}

// drop ends j early with err (unless it already ended) and detaches it
// from every queued shard. A shard other jobs are attached to stays
// where it is, attempts and lease included; one left without a slot
// goes, and a late outcome for it is then a counted no-op.
func (q *leaseQueue) drop(j *job, err error) {
	if j.err == nil {
		j.err = err
	}
	orphaned := func(s *shard) bool {
		s.slots = slices.DeleteFunc(s.slots, func(sl slot) bool { return sl.job == j })
		if len(s.slots) == 0 {
			delete(q.inflight, s.key)
		}
		return len(s.slots) == 0
	}
	q.pending = slices.DeleteFunc(q.pending, orphaned)
	q.leased = slices.DeleteFunc(q.leased, orphaned)
}

// reap forgets every worker silent past the timeout and requeues the
// shards it was executing.
func (q *leaseQueue) reap(now time.Time) effects {
	var eff effects
	for id, seen := range q.workers {
		if now.Sub(seen) > q.timeout {
			delete(q.workers, id)
			eff.notes = append(eff.notes, fmt.Sprintf("fleet: worker %s timed out, its shards requeued", id))
		}
	}
	q.leased = slices.DeleteFunc(q.leased, func(s *shard) bool {
		_, known := q.workers[s.holder.worker]
		if known || s.holder == (holder{}) {
			return false
		}
		q.requeue(s, now)
		eff.wake = true
		return true
	})
	return eff
}

// requeue puts a shard taken out of the leased list back on the pending
// queue with one more attempt consumed and a bounded backoff.
func (q *leaseQueue) requeue(s *shard, now time.Time) {
	s.attempts++
	s.notBefore = now.Add(min(retryBackoff<<(s.attempts-1), 8*retryBackoff))
	q.pending = append(q.pending, s)
	q.stats.Reassigned++
}

// take leases the first pending shard that ok accepts to h at now, or
// returns nil.
func (q *leaseQueue) take(h holder, now time.Time, ok func(*shard) bool) *shard {
	s := unqueue(&q.pending, ok)
	if s != nil {
		s.holder, s.leasedAt = h, now
		q.leased = append(q.leased, s)
	}
	return s
}

// lease counts a worker's poll or completion as a heartbeat and answers
// it with the slot's lease: the one already recorded for the slot — its
// response was lost in transit, since a slot asks only when it holds
// nothing — else the first eligible pending shard, if any. known is
// false for a worker that must re-register.
func (q *leaseQueue) lease(h holder, now time.Time) (lease *Shard, known bool) {
	if !q.heartbeat(h.worker, now) {
		return nil, false
	}
	var s *shard
	if i := slices.IndexFunc(q.leased, func(l *shard) bool { return l.holder == h }); i >= 0 {
		s = q.leased[i]
	} else {
		s = q.take(h, now, func(p *shard) bool { return !p.notBefore.After(now) })
	}
	if s == nil {
		return nil, true
	}
	q.stats.Dispatched++
	return &Shard{ID: s.id, Key: s.key, Point: s.point}, true
}

// takeLocal leases the first pending shard, backoff or not, to the
// coordinator's local runners while no worker is live.
func (q *leaseQueue) takeLocal(now time.Time) *shard {
	if q.live(now) > 0 {
		return nil
	}
	s := q.take(holder{}, now, func(*shard) bool { return true })
	if s != nil {
		q.stats.LocalRuns++
	}
	return s
}

// complete settles one posted outcome and answers with the slot's next
// lease: the slot that just finished is by definition free, so the
// round-trip that delivers a result also fetches the next point. The
// request is validated before any state changes — a rejected body must
// leave its shard leased, to be requeued when the worker times out.
func (q *leaseQueue) complete(req CompleteRequest, now time.Time) (*Shard, effects, error) {
	if req.Error == "" && req.Result == nil {
		return nil, effects{}, fmt.Errorf("complete for %s carries neither result nor error", req.Shard)
	}
	eff := q.settle(req.Shard, req.Result, req.Error, now)
	next, _ := q.lease(holder{req.Worker, req.Slot}, now)
	return next, eff, nil
}

// settle records one shard outcome. A result is accepted for any shard
// still pending or leased — leased to whoever, or requeued after its
// worker was presumed dead — because identical points produce identical
// bytes, and leaves the shard in flight by key for the shell to file
// (effects.put, then filed). A failure requeues the shard or, once
// attempts are exhausted, fails every attached job and stores nothing,
// so a resubmission tries again. An outcome for a shard no longer
// outstanding (settled, or every job attached to it gone) is a counted
// no-op: it must not touch merge order, the memo or the counters a
// second time.
func (q *leaseQueue) settle(id string, res *experiments.PointResult, errStr string, now time.Time) effects {
	byID := func(s *shard) bool { return s.id == id }
	s := unqueue(&q.leased, byID)
	if s == nil {
		s = unqueue(&q.pending, byID)
	}
	if s == nil {
		q.stats.DupCompletes++
		return effects{}
	}
	if errStr == "" {
		return effects{put: s, result: *res}
	}
	if s.attempts+1 < maxAttempts {
		q.requeue(s, now)
		return effects{wake: true, notes: []string{fmt.Sprintf("fleet: shard %s attempt %d failed (%s), requeued", s.id, s.attempts, errStr)}}
	}
	delete(q.inflight, s.key)
	q.stats.Failed++
	err := fmt.Errorf("shard %s (%s) failed after %d attempts: %s", s.id, s.point.Label, s.attempts+1, errStr)
	eff := effects{notes: []string{"fleet: " + err.Error()}}
	for _, sl := range s.slots {
		if sl.job.err == nil { // once per job, however many slots it has here
			q.drop(sl.job, err)
			eff.ended = append(eff.ended, sl.job)
		}
	}
	return eff
}

// unqueue removes the first shard ok accepts from queue and returns it,
// or nil.
func unqueue(queue *[]*shard, ok func(*shard) bool) *shard {
	i := slices.IndexFunc(*queue, ok)
	if i < 0 {
		return nil
	}
	s := (*queue)[i]
	*queue = slices.Delete(*queue, i, i+1)
	return s
}

// filed fills every slot attached to s with res once the memo holds it
// at now, skipping jobs that ended meanwhile, and takes s's key out of
// flight. The slots are reported with the time since s's lease.
func (q *leaseQueue) filed(s *shard, res experiments.PointResult, now time.Time) effects {
	delete(q.inflight, s.key)
	q.stats.Completed++
	eff := effects{took: now.Sub(s.leasedAt)}
	for _, sl := range s.slots {
		if sl.job.err != nil {
			continue
		}
		sl.job.results[sl.index] = res
		eff.filled = append(eff.filled, sl)
		if sl.job.remaining--; sl.job.remaining == 0 {
			eff.ended = append(eff.ended, sl.job)
		}
	}
	return eff
}
