package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"coherencesim/internal/experiments"
)

// scheduleSeeds is how many seeded random schedules TestRandomSchedules
// drives through the real Coordinator.
const scheduleSeeds = 300

// simWorker is the test's stand-in for a worker process: it remembers
// the leases it was handed and delivers them whenever the schedule says
// so, however late.
type simWorker struct {
	id   string
	held []Shard // leased to this worker and not yet delivered
	sent []Shard // delivered once already; delivering again is a duplicate
}

// simJob is the test's view of one RunPoints call.
type simJob struct {
	name   string // the coordinator's id for it: j1, j2 in submission order
	pts    []experiments.Point
	want   []experiments.PointResult // what a lone run gives, per slot
	cancel context.CancelFunc
	wait   func() ([]experiments.PointResult, error)
	filled []int // onDone calls per slot; guarded by schedule.mu
	over   bool  // RunPoints has returned: done, cancelled or failed
}

// slotRef names one slot of one job.
type slotRef struct {
	job   string
	index int
}

// schedule is one seeded run: two jobs drawn with repeats from the same
// four points — the second arriving mid-run — two 2-slot workers, and a
// never-polling third worker whose heartbeats keep the coordinator's
// local fallback out of the picture, so every state change is one the
// schedule made.
type schedule struct {
	t       *testing.T
	c       *Coordinator
	clk     *manualClock
	cfg     Config
	cache   *memCache
	results map[string]*experiments.PointResult // by point key
	workers []*simWorker
	jobs    []*simJob
	mu      sync.Mutex // guards every simJob.filled
	leases  uint64
	trace   []string
}

func (s *schedule) logf(format string, args ...any) {
	s.trace = append(s.trace, fmt.Sprintf(format, args...))
}

func (s *schedule) fatalf(format string, args ...any) {
	s.t.Helper()
	s.t.Fatalf("%s\nschedule:\n  %s", fmt.Sprintf(format, args...), strings.Join(s.trace, "\n  "))
}

// beat advances the clock and heartbeats everyone but the silent worker.
// The anchor is heard from in the same critical section as the advance:
// otherwise a step past the timeout leaves an instant with no live
// worker, in which the job's local-fallback goroutine takes a shard.
func (s *schedule) beat(d time.Duration, silent *simWorker) {
	s.c.mu.Lock()
	s.clk.advance(d)
	s.c.workers["anchor"] = s.clk.Now()
	s.c.mu.Unlock()
	for _, w := range s.workers {
		if w != silent {
			s.c.heartbeat(w.id)
		}
	}
}

func (s *schedule) filledSlots(j *simJob) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sum(j.filled)
}

// outstanding lists the coordinator's pending and leased shards. Callers
// hold c.mu.
func (s *schedule) outstanding() []*shard {
	all := append([]*shard(nil), s.c.pending...)
	for _, l := range s.c.leased {
		all = append(all, l)
	}
	return all
}

// submit starts RunPoints over pts and returns once the call has done
// everything it does unprompted: attached its slots in one critical
// section, then reported the slots the memo answered.
func (s *schedule) submit(pts []experiments.Point) {
	j := &simJob{name: fmt.Sprintf("j%d", len(s.jobs)+1), pts: pts, filled: make([]int, len(pts))}
	for _, pt := range pts {
		j.want = append(j.want, *s.results[pt.Key()])
	}
	ctx, cancel := context.WithCancel(context.Background())
	j.cancel = cancel
	j.wait = runAsync(s.t, s.c, ctx, pts, func(i int, r experiments.PointResult) {
		s.mu.Lock()
		defer s.mu.Unlock()
		j.filled[i]++
		if !reflect.DeepEqual(r, j.want[i]) {
			s.t.Errorf("%s slot %d was filled with bytes a lone run does not give", j.name, i)
		}
	})
	s.jobs = append(s.jobs, j)
	attached := 0
	for seq := 0; seq < len(s.jobs); runtime.Gosched() {
		s.c.mu.Lock()
		if seq = s.c.seq; seq == len(s.jobs) {
			for _, sh := range s.outstanding() {
				for _, sl := range sh.slots {
					if sl.job.id == j.name {
						attached++
					}
				}
			}
		}
		s.c.mu.Unlock()
	}
	for s.filledSlots(j) < len(pts)-attached {
		runtime.Gosched()
	}
	s.logf("%s submitted: %d slots, %d waiting on a shard", j.name, len(pts), attached)
	s.reap()
}

// reap collects every job whose last slot has been filled.
func (s *schedule) reap() {
	s.t.Helper()
	for _, j := range s.jobs {
		if j.over || s.filledSlots(j) < len(j.pts) {
			continue
		}
		got, err := j.wait()
		j.over = true
		if err != nil {
			s.fatalf("%s: every slot filled, yet RunPoints: %v", j.name, err)
		}
		if !reflect.DeepEqual(got, j.want) {
			s.fatalf("%s: assembled results differ from lone runs in submission order", j.name)
		}
		s.logf("%s done", j.name)
	}
}

func (s *schedule) live() (live []*simJob) {
	for _, j := range s.jobs {
		if !j.over {
			live = append(live, j)
		}
	}
	return live
}

func (s *schedule) cancel(j *simJob) {
	s.logf("%s cancelled", j.name)
	j.cancel()
	if _, err := j.wait(); !errors.Is(err, context.Canceled) {
		s.fatalf("%s cancelled: err = %v", j.name, err)
	}
	j.over = true
}

func (s *schedule) poll(w *simWorker) {
	if len(w.held) >= 2 {
		return // both slots busy: a real worker would not be polling
	}
	lease, known := s.c.poll(w.id)
	switch {
	case !known:
		s.logf("%s polls: unknown, re-registers", w.id)
		s.c.register(w.id)
	case lease != nil:
		s.logf("%s polls: leased %s", w.id, lease.ID)
		w.held = append(w.held, *lease)
		s.leases++
	}
}

// deliver posts one outcome for sh and takes whatever lease rides back.
// An error that exhausts the shard must fail every job attached to it.
func (s *schedule) deliver(w *simWorker, sh Shard, errStr string) {
	s.t.Helper()
	req := CompleteRequest{Worker: w.id, Shard: sh.ID, Error: errStr}
	if errStr == "" {
		req.Result = s.results[sh.Key]
	}
	s.c.mu.Lock()
	var attached []string
	for _, o := range s.outstanding() {
		if o.id == sh.ID {
			for _, sl := range o.slots {
				attached = append(attached, sl.job.id)
			}
		}
	}
	failed := s.c.stats.Failed
	s.c.mu.Unlock()

	next, err := s.c.complete(req)
	if err != nil {
		s.fatalf("complete(%s): %v", sh.ID, err)
	}
	s.logf("%s completes %s (error %q), next lease %v", w.id, sh.ID, errStr, next != nil)
	if next != nil {
		w.held = append(w.held, *next)
		s.leases++
	}
	if s.c.Stats().Failed > failed {
		for _, j := range s.jobs {
			if j.over || !slices.Contains(attached, j.name) {
				continue
			}
			if _, err := j.wait(); err == nil || !strings.Contains(err.Error(), errStr) {
				s.fatalf("%s was attached to exhausted shard %s: err = %v", j.name, sh.ID, err)
			}
			j.over = true
			s.logf("%s failed with shard %s", j.name, sh.ID)
		}
	}
	s.reap()
}

// take removes a random held lease from w, or reports that it holds none.
func (s *schedule) take(w *simWorker, rng *rand.Rand) (Shard, bool) {
	if len(w.held) == 0 {
		return Shard{}, false
	}
	i := rng.Intn(len(w.held))
	sh := w.held[i]
	w.held = append(w.held[:i], w.held[i+1:]...)
	w.sent = append(w.sent, sh)
	return sh, true
}

func (s *schedule) complete(w *simWorker, rng *rand.Rand, errStr string) {
	s.t.Helper()
	if sh, ok := s.take(w, rng); ok {
		s.deliver(w, sh, errStr)
	}
}

// check asserts the lease-queue invariants against the coordinator's own
// state.
func (s *schedule) check() {
	s.t.Helper()
	s.c.mu.Lock()
	keys := make(map[string]int)
	home := make(map[slotRef]int)
	indexed := true
	for _, sh := range s.outstanding() {
		keys[sh.key]++
		indexed = indexed && s.c.inflight[sh.key] == sh
		for _, sl := range sh.slots {
			home[slotRef{sl.job.id, sl.index}]++
		}
	}
	inflight := len(s.c.inflight)
	stats := s.c.stats
	s.c.mu.Unlock()

	if !indexed || inflight != len(keys) {
		s.fatalf("the in-flight map (%d keys) is not the pending and leased shards (%d keys)", inflight, len(keys))
	}
	for key, n := range keys {
		if n > 1 {
			s.fatalf("key %s is outstanding %d times", key, n)
		}
	}
	s.mu.Lock()
	for _, j := range s.jobs {
		for i := range j.pts {
			switch at, filled := home[slotRef{j.name, i}], j.filled[i]; {
			case filled > 1:
				s.fatalf("%s slot %d filled %d times", j.name, i, filled)
			case j.over && at != 0:
				s.fatalf("%s is over, yet its slot %d is attached to a shard", j.name, i)
			case !j.over && at+filled != 1:
				s.fatalf("%s slot %d: attached %d times, filled %d: a live job's slot is either waiting on one shard or filled", j.name, i, at, filled)
			}
		}
	}
	s.mu.Unlock()
	var completed uint64
	for key := range s.results {
		puts := s.cache.putsOf(key)
		if puts > 1 {
			s.fatalf("key %s written to the store %d times", key, puts)
		}
		completed += uint64(puts)
	}
	if stats.Completed != completed || stats.Dispatched != s.leases {
		s.fatalf("stats %+v, want %d completed and %d dispatched", stats, completed, s.leases)
	}
	if n := s.c.cfg.Memo.Checkpoints(); uint64(n) != completed {
		s.fatalf("the memo holds %d points after %d completions: only an accepted result is stored, once", n, completed)
	}
}

func runSchedule(t *testing.T, seed int64, distinct []experiments.Point, want []experiments.PointResult) {
	rng := rand.New(rand.NewSource(seed))
	s := &schedule{
		t: t, cache: newMemCache(),
		results: make(map[string]*experiments.PointResult),
		workers: []*simWorker{{id: "w0"}, {id: "w1"}},
	}
	for i, pt := range distinct {
		s.results[pt.Key()] = &want[i]
	}
	s.cfg = Config{
		HeartbeatTimeout: time.Second,
		PollWait:         time.Nanosecond, // an empty poll returns at once
		RetryBackoff:     time.Millisecond,
		Memo:             experiments.NewPointMemo(s.cache.durable()),
	}
	s.c, s.clk = newManualCoordinator(s.cfg)
	defer s.c.Close()
	for _, id := range []string{"anchor", "w0", "w1"} {
		s.c.register(id)
	}
	// A job asks for 3-5 points, repeats likely; labels never repeat.
	requested := make(map[string]bool)
	slots := 0
	draw := func() []experiments.Point {
		pts := make([]experiments.Point, 3+rng.Intn(3))
		for i := range pts {
			pts[i] = distinct[rng.Intn(len(distinct))]
			pts[i].Label = fmt.Sprintf("job%d/slot%d", len(s.jobs)+1, i)
			requested[pts[i].Key()] = true
		}
		slots += len(pts)
		return pts
	}
	// One seed in four is calm — nothing fails, times out or is
	// cancelled — so its lease count is exactly the distinct keys.
	calm := seed%4 == 0
	actions := 100
	if calm {
		actions = 77
	}

	s.submit(draw())
	s.check()
	second := rng.Intn(25) // the step before which the second job arrives
	for step := 0; step < 70 && (step <= second || len(s.live()) > 0); step++ {
		if step == second {
			s.submit(draw())
			s.check()
		}
		s.beat(time.Millisecond, nil)
		w := s.workers[rng.Intn(len(s.workers))]
		switch n := rng.Intn(actions); {
		case n < 35:
			s.poll(w)
		case n < 65:
			s.complete(w, rng, "")
		case n < 72:
			if len(w.sent) > 0 {
				s.deliver(w, w.sent[rng.Intn(len(w.sent))], "")
			}
		case n < 77:
			s.logf("%s heartbeats", w.id)
			s.c.heartbeat(w.id)
		case n < 82:
			s.complete(w, rng, "injected failure")
		case n < 91:
			s.logf("%s goes silent past the timeout", w.id)
			s.beat(s.cfg.HeartbeatTimeout+time.Millisecond, w)
			s.c.reapDead()
		case n < 94:
			// The same shard fails until its attempts run out, wherever
			// each requeue leaves it.
			if sh, ok := s.take(w, rng); ok {
				failed := s.c.Stats().Failed
				for i := 0; i < s.c.cfg.MaxAttempts && s.c.Stats().Failed == failed; i++ {
					s.deliver(w, sh, "exhausting failure")
				}
			}
		default:
			// Usually j1, whose submission created most of the shards.
			if live := s.live(); len(live) > 0 {
				s.cancel(live[rng.Intn(len(live))])
			}
		}
		s.check()
	}

	// Drain: every worker is heard from again and works the queue dry;
	// no live job may be left waiting.
	for round := 0; len(s.live()) > 0; round++ {
		if round > 100 {
			s.fatalf("%d jobs did not drain", len(s.live()))
		}
		s.beat(8*time.Millisecond, nil) // past the largest retry backoff
		for _, w := range s.workers {
			s.poll(w)
			s.complete(w, rng, "")
		}
		s.check()
	}

	// Every job is over, so nothing is outstanding and whatever the
	// workers still hold is a no-op to deliver.
	dups := s.c.Stats().DupCompletes
	for _, w := range s.workers {
		for len(w.held) > 0 {
			s.complete(w, rng, "")
			dups++
		}
	}
	s.check()
	st := s.c.Stats()
	if st.DupCompletes != dups {
		s.fatalf("dup completes = %d after delivering into finished jobs, want %d", st.DupCompletes, dups)
	}
	if want := uint64(len(requested)); calm && (st.Dispatched != want || st.Coalesced != uint64(slots)-want) {
		s.fatalf("calm schedule: stats %+v, want %d leases (the distinct keys) and %d coalesced of %d slots", st, want, uint64(slots)-want, slots)
	}
}

func sum(xs []int) (n int) {
	for _, x := range xs {
		n += x
	}
	return n
}

// TestRandomSchedules drives seeded random interleavings of poll,
// complete (good, failed, late, duplicate, failed until exhausted),
// heartbeat, worker timeout, a second job's arrival and either job's
// cancellation through the real Coordinator on a manual clock, over two
// jobs that repeat points within themselves and share them with each
// other. After every step a key is outstanding at most once, each slot
// of a live job is either attached to exactly one shard or filled
// exactly once with the bytes a lone run gives, nothing is written to
// the shard cache twice, and a job that is over is attached to nothing.
// Every live job drains while a worker is live, a finished job's results
// are lone runs in submission order, and a calm schedule leases exactly
// the distinct keys.
func TestRandomSchedules(t *testing.T) {
	distinct := quickPoints(4)
	want := baseline(t, distinct)
	for seed := int64(0); seed < scheduleSeeds; seed++ {
		runSchedule(t, seed, distinct, want)
	}
}
