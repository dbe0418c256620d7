package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
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

// schedule is one seeded run: a 4-shard job, two 2-slot workers, and a
// never-polling third worker whose heartbeats keep the coordinator's
// local fallback out of the picture, so every state change is one the
// schedule made.
type schedule struct {
	t       *testing.T
	c       *Coordinator
	clk     *manualClock
	cfg     Config
	cache   *memCache
	pts     []experiments.Point
	results map[string]*experiments.PointResult // by point key
	workers []*simWorker
	merged  []int // onDone calls per shard index
	leases  uint64
	dead    bool // the job was cancelled or failed
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
func (s *schedule) beat(d time.Duration, silent *simWorker) {
	s.clk.advance(d)
	s.c.heartbeat("anchor")
	for _, w := range s.workers {
		if w != silent {
			s.c.heartbeat(w.id)
		}
	}
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
func (s *schedule) deliver(w *simWorker, sh Shard, errStr string) {
	req := CompleteRequest{Worker: w.id, Shard: sh.ID, Error: errStr}
	if errStr == "" {
		req.Result = s.results[sh.Key]
	}
	next, err := s.c.complete(req)
	if err != nil {
		s.fatalf("complete(%s): %v", sh.ID, err)
	}
	s.logf("%s completes %s (error %q), next lease %v", w.id, sh.ID, errStr, next != nil)
	if next != nil {
		w.held = append(w.held, *next)
		s.leases++
	}
}

func (s *schedule) complete(w *simWorker, rng *rand.Rand, errStr string) {
	if len(w.held) == 0 {
		return
	}
	i := rng.Intn(len(w.held))
	sh := w.held[i]
	w.held = append(w.held[:i], w.held[i+1:]...)
	w.sent = append(w.sent, sh)
	s.deliver(w, sh, errStr)
}

// check asserts the lease-queue invariants against the coordinator's own
// state.
func (s *schedule) check() {
	s.t.Helper()
	s.c.mu.Lock()
	where := make([]int, len(s.pts))
	for _, p := range s.c.pending {
		where[p.index]++
	}
	for _, l := range s.c.leased {
		where[l.index]++
	}
	stats := s.c.stats
	s.c.mu.Unlock()

	var completed uint64
	for i, pt := range s.pts {
		if s.merged[i] > 1 {
			s.fatalf("shard %d merged %d times", i, s.merged[i])
		}
		completed += uint64(s.merged[i])
		if puts := s.cache.putsOf(pt.Key()); puts != s.merged[i] {
			s.fatalf("shard %d: %d cache writes for %d merges", i, puts, s.merged[i])
		}
		switch {
		case s.dead && where[i] != 0:
			s.fatalf("shard %d of a dead job is still queued or leased", i)
		case !s.dead && where[i]+s.merged[i] != 1:
			s.fatalf("shard %d: pending+leased %d, merged %d: want exactly one home", i, where[i], s.merged[i])
		}
	}
	if stats.Completed != completed || stats.Dispatched != s.leases {
		s.fatalf("stats %+v, want %d completed and %d dispatched", stats, completed, s.leases)
	}
}

func runSchedule(t *testing.T, seed int64, pts []experiments.Point, want []experiments.PointResult) {
	rng := rand.New(rand.NewSource(seed))
	s := &schedule{
		t: t, pts: pts, cache: newMemCache(),
		results: make(map[string]*experiments.PointResult),
		workers: []*simWorker{{id: "w0"}, {id: "w1"}},
		merged:  make([]int, len(pts)),
	}
	for i, pt := range pts {
		s.results[pt.Key()] = &want[i]
	}
	s.cfg = Config{
		HeartbeatTimeout: time.Second,
		PollWait:         time.Nanosecond, // an empty poll returns at once
		RetryBackoff:     time.Millisecond,
		Cache:            s.cache,
	}
	s.c, s.clk = newManualCoordinator(s.cfg)
	defer s.c.Close()
	for _, id := range []string{"anchor", "w0", "w1"} {
		s.c.register(id)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wait := runAsync(t, s.c, ctx, pts, func(i int, _ experiments.PointResult) { s.merged[i]++ })
	for queued := 0; queued < len(pts); runtime.Gosched() {
		s.c.mu.Lock()
		queued = len(s.c.pending)
		s.c.mu.Unlock()
	}
	s.check()

	var got []experiments.PointResult
	var err error
	finish := func() { // the job is over: collect RunPoints' answer
		got, err = wait()
		s.dead = err != nil
	}
	for step := 0; step < 60 && !s.dead && got == nil; step++ {
		s.beat(time.Millisecond, nil)
		w := s.workers[rng.Intn(len(s.workers))]
		switch n := rng.Intn(100); {
		case n < 35:
			s.poll(w)
		case n < 65:
			s.complete(w, rng, "")
		case n < 70:
			s.complete(w, rng, "injected failure")
		case n < 75:
			s.logf("%s heartbeats", w.id)
			s.c.heartbeat(w.id)
		case n < 88:
			s.logf("%s goes silent past the timeout", w.id)
			s.beat(s.cfg.HeartbeatTimeout+time.Millisecond, w)
			s.c.reapDead()
		case n < 99:
			if len(w.sent) > 0 {
				s.deliver(w, w.sent[rng.Intn(len(w.sent))], "")
			}
		default:
			s.logf("job cancelled")
			cancel()
			finish()
		}
		if !s.dead && got == nil {
			s.c.mu.Lock()
			jobErr := s.c.stats.Failed > 0
			s.c.mu.Unlock()
			if total := sum(s.merged); total == len(pts) || jobErr {
				finish()
			}
		}
		s.check()
	}

	// Drain: every worker is heard from again and works the queue dry.
	for round := 0; !s.dead && got == nil; round++ {
		if round > 100 {
			s.fatalf("job did not drain")
		}
		s.beat(8*time.Millisecond, nil) // past the largest retry backoff
		for _, w := range s.workers {
			s.poll(w)
			s.complete(w, rng, "")
		}
		if sum(s.merged) == len(pts) {
			finish()
		}
		s.check()
	}

	switch {
	case err == nil:
		if !reflect.DeepEqual(got, want) {
			s.fatalf("assembled results differ from the single-process baseline")
		}
	case errors.Is(err, context.Canceled) || s.c.Stats().Failed == 1:
		// Whatever the workers still hold is now a no-op to deliver.
		dups := s.c.Stats().DupCompletes
		for _, w := range s.workers {
			for len(w.held) > 0 {
				s.complete(w, rng, "")
				dups++
			}
		}
		s.check()
		if n := s.c.Stats().DupCompletes; n != dups {
			s.fatalf("dup completes = %d after delivering into a dead job, want %d", n, dups)
		}
	default:
		s.fatalf("RunPoints: %v", err)
	}
}

func sum(xs []int) (n int) {
	for _, x := range xs {
		n += x
	}
	return n
}

// TestRandomSchedules drives seeded random interleavings of poll,
// complete (good, failed, late, duplicate), heartbeat, worker timeout
// and job cancellation through the real Coordinator on a manual clock.
// After every step each shard of a live job has exactly one home —
// pending, leased or merged — nothing is merged or written to the shard
// cache twice, and a finished job's results are the single-process
// baseline in submission order.
func TestRandomSchedules(t *testing.T) {
	pts := quickPoints(4)
	want := baseline(t, pts)
	for seed := int64(0); seed < scheduleSeeds; seed++ {
		runSchedule(t, seed, pts, want)
	}
}
