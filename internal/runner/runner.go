// Package runner provides the worker pool that fans independent
// simulation runs across CPUs. Every experiment of the paper's
// evaluation is a sweep over fully independent discrete-event
// simulations (each builds its own Machine and engine), so the sweeps
// parallelize perfectly; what must not change is the output. Map
// therefore assembles results strictly in submission order, making a
// parallel sweep's rendered tables byte-identical to the serial path's.
//
// A nil *Pool, or a pool with one worker, executes jobs inline on the
// calling goroutine in submission order — the pure-serial path, with no
// goroutines or channels involved.
package runner

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"
)

// CycleReporter is implemented by job results that can report how much
// simulated time their run covered (machine.Result and the workload
// result types embedding it). The pool uses it to account aggregate
// simulation throughput (sim-cycles per wall second) for progress
// reporting; results that do not implement it simply contribute no
// cycles.
type CycleReporter interface {
	SimulatedCycles() uint64
}

// Snapshot is the pool's cumulative progress at one job completion.
type Snapshot struct {
	JobsDone  int           // jobs finished since the pool was created
	JobsTotal int           // jobs submitted since the pool was created
	SimCycles uint64        // total simulated cycles across finished jobs
	Elapsed   time.Duration // wall time since the pool was created
	Label     string        // label of the job that just finished
	JobTime   time.Duration // wall time of the job that just finished
}

// CyclesPerSecond returns aggregate simulation throughput.
func (s Snapshot) CyclesPerSecond() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.SimCycles) / s.Elapsed.Seconds()
}

// ETA estimates the wall time remaining until all submitted jobs finish,
// extrapolating from the average time per completed job. It returns 0
// until at least one job has finished (no basis for an estimate).
func (s Snapshot) ETA() time.Duration {
	if s.JobsDone <= 0 || s.JobsTotal <= s.JobsDone {
		return 0
	}
	perJob := s.Elapsed / time.Duration(s.JobsDone)
	return perJob * time.Duration(s.JobsTotal-s.JobsDone)
}

// Pool is a bounded worker pool for independent simulation jobs. Create
// one with New and share it across any number of Map calls; the
// progress counters accumulate over the pool's lifetime.
type Pool struct {
	workers int
	start   time.Time
	ctx     context.Context // bound cancellation context; nil = Background

	mu        sync.Mutex
	onDone    func(Snapshot)
	jobsDone  int
	jobsTotal int
	simCycles uint64
}

// New builds a pool. workers <= 0 selects GOMAXPROCS; workers == 1
// yields a pool whose Map calls run inline (the serial path).
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, start: time.Now()}
}

// NewWithContext builds a pool whose Map calls observe ctx: once ctx is
// cancelled (or its deadline passes), no further jobs start and Map
// returns with the unreached results left at their zero values. This is
// how a caller that only controls the pool — not the sweep code calling
// Map — threads cancellation through an experiment: the service hands
// experiments.Options a context-bound pool and cancels the context.
func NewWithContext(ctx context.Context, workers int) *Pool {
	p := New(workers)
	p.ctx = ctx
	return p
}

// Context returns the pool's bound cancellation context (Background for
// nil or unbound pools). Experiment code uses it so that work started
// from inside a job — a memoized point's simulation, or the wait for
// another job's — observes the same cancellation as the Map loops
// themselves.
func (p *Pool) Context() context.Context {
	if p == nil || p.ctx == nil {
		return context.Background()
	}
	return p.ctx
}

// Workers returns the pool's concurrency bound (1 for nil pools).
func (p *Pool) Workers() int {
	if p == nil {
		return 1
	}
	return p.workers
}

// SetProgress installs fn to be called after every job completes. Calls
// are serialized by the pool, so fn needs no locking of its own.
func (p *Pool) SetProgress(fn func(Snapshot)) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.onDone = fn
	p.mu.Unlock()
}

// Progress returns the pool's current cumulative counters.
func (p *Pool) Progress() Snapshot {
	if p == nil {
		return Snapshot{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return Snapshot{
		JobsDone:  p.jobsDone,
		JobsTotal: p.jobsTotal,
		SimCycles: p.simCycles,
		Elapsed:   time.Since(p.start),
	}
}

// Submit registers n new jobs. Map calls it; a caller that runs jobs
// elsewhere — a fleet dispatch — calls it and Finish to report them
// through the pool.
func (p *Pool) Submit(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.jobsTotal += n
	p.mu.Unlock()
}

// Finish records one completed job, which took jobTime, and fires the
// progress hook.
func (p *Pool) Finish(label string, jobTime time.Duration, result any) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.jobsDone++
	if c, ok := result.(CycleReporter); ok {
		p.simCycles += c.SimulatedCycles()
	}
	if p.onDone != nil {
		// Called under the pool lock: hooks run one at a time and must
		// not call back into the pool.
		p.onDone(Snapshot{
			JobsDone:  p.jobsDone,
			JobsTotal: p.jobsTotal,
			SimCycles: p.simCycles,
			Elapsed:   time.Since(p.start),
			Label:     label,
			JobTime:   jobTime,
		})
	}
}

// Job is one independent unit of work with a diagnostic label.
type Job[T any] struct {
	Label string
	Run   func() T
}

// Map executes every job and returns their results indexed exactly as
// submitted, so callers assemble output in a deterministic order
// regardless of scheduling. With a nil pool or a single worker the jobs
// run inline in submission order on the calling goroutine. Map observes
// the pool's bound context (NewWithContext): workers check it between
// jobs (a running simulation is never interrupted mid-event), and once
// it is done the remaining jobs are skipped, leaving their results at
// the zero value — the caller's ctx.Err() then says the slice is partial
// and must not be rendered as a complete sweep.
func Map[T any](p *Pool, jobs []Job[T]) []T {
	ctx := p.Context()
	results := make([]T, len(jobs))
	p.Submit(len(jobs))
	if p.Workers() == 1 || len(jobs) <= 1 {
		for i, j := range jobs {
			if ctx.Err() != nil {
				return results
			}
			t0 := time.Now()
			results[i] = j.Run()
			p.Finish(j.Label, time.Since(t0), results[i])
		}
		return results
	}
	workers := p.Workers()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				// Keep draining after cancellation (without running the
				// jobs) so the feeder below can never block forever.
				if ctx.Err() != nil {
					continue
				}
				t0 := time.Now()
				results[i] = jobs[i].Run()
				p.Finish(jobs[i].Label, time.Since(t0), results[i])
			}
		}()
	}
feed:
	for i := range jobs {
		select {
		case idx <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()
	return results
}

// Printer returns a progress hook that writes one line per completed
// job to w (conventionally os.Stderr, keeping stdout byte-identical to
// the serial path). Each line carries the cumulative job count,
// aggregate simulated cycles and throughput, an ETA extrapolated from
// the average job time, and the just-finished job's label and duration.
func Printer(w io.Writer) func(Snapshot) {
	return func(s Snapshot) {
		eta := "done"
		if d := s.ETA(); d > 0 {
			eta = "eta " + d.Round(100*time.Millisecond).String()
		}
		fmt.Fprintf(w, "runner: %d/%d jobs  %s sim-cycles  %s/s  %s  %s (%.2fs)\n",
			s.JobsDone, s.JobsTotal,
			formatCycles(float64(s.SimCycles)), formatCycles(s.CyclesPerSecond()),
			eta, s.Label, s.JobTime.Seconds())
	}
}

func formatCycles(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fK", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
