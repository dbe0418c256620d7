package runner

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func squareJobs(n int) []Job[int] {
	jobs := make([]Job[int], n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job[int]{
			Label: fmt.Sprintf("job%d", i),
			Run:   func() int { return i * i },
		}
	}
	return jobs
}

func TestMapPreservesSubmissionOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 33} {
		got := Map(New(workers), squareJobs(25))
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestNilPoolRunsSerially(t *testing.T) {
	// A nil pool must run inline in order; verify with an order-sensitive
	// side effect (only legal because the path is single-goroutine).
	var order []int
	jobs := make([]Job[int], 10)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func() int {
			order = append(order, i)
			return i
		}}
	}
	var p *Pool
	got := Map(p, jobs)
	for i := range jobs {
		if order[i] != i || got[i] != i {
			t.Fatalf("nil pool ran out of order: order=%v results=%v", order, got)
		}
	}
	if p.Workers() != 1 {
		t.Errorf("nil pool workers = %d, want 1", p.Workers())
	}
}

func TestSingleWorkerRunsInline(t *testing.T) {
	// The serial path must execute on the calling goroutine: jobs observe
	// and mutate unsynchronized state without the race detector firing.
	p := New(1)
	sum := 0
	jobs := make([]Job[int], 5)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func() int { sum += i; return sum }}
	}
	got := Map(p, jobs)
	if sum != 10 {
		t.Fatalf("sum = %d, want 10", sum)
	}
	if got[4] != 10 {
		t.Fatalf("results = %v", got)
	}
}

func TestDefaultWorkersIsGOMAXPROCS(t *testing.T) {
	if w := New(0).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("New(0).Workers() = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := New(-3).Workers(); w != runtime.GOMAXPROCS(0) {
		t.Errorf("New(-3).Workers() = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
}

func TestConcurrencyBound(t *testing.T) {
	// Never more than `workers` jobs in flight at once.
	const workers = 3
	p := New(workers)
	var inFlight, maxSeen atomic.Int32
	jobs := make([]Job[struct{}], 40)
	for i := range jobs {
		jobs[i] = Job[struct{}]{Run: func() struct{} {
			n := inFlight.Add(1)
			for {
				m := maxSeen.Load()
				if n <= m || maxSeen.CompareAndSwap(m, n) {
					break
				}
			}
			runtime.Gosched()
			inFlight.Add(-1)
			return struct{}{}
		}}
	}
	Map(p, jobs)
	if got := maxSeen.Load(); got > workers {
		t.Errorf("observed %d concurrent jobs, bound is %d", got, workers)
	}
}

type cycleResult struct{ cycles uint64 }

func (r cycleResult) SimulatedCycles() uint64 { return r.cycles }

func TestProgressAccounting(t *testing.T) {
	p := New(2)
	var lines []string
	p.SetProgress(func(s Snapshot) {
		lines = append(lines, fmt.Sprintf("%d/%d %d", s.JobsDone, s.JobsTotal, s.SimCycles))
	})
	jobs := make([]Job[cycleResult], 4)
	for i := range jobs {
		jobs[i] = Job[cycleResult]{Label: "c", Run: func() cycleResult { return cycleResult{100} }}
	}
	Map(p, jobs)
	snap := p.Progress()
	if snap.JobsDone != 4 || snap.JobsTotal != 4 {
		t.Errorf("progress jobs %d/%d, want 4/4", snap.JobsDone, snap.JobsTotal)
	}
	if snap.SimCycles != 400 {
		t.Errorf("sim cycles = %d, want 400", snap.SimCycles)
	}
	if len(lines) != 4 {
		t.Errorf("progress hook fired %d times, want 4", len(lines))
	}
	// The final callback must report the complete totals.
	if lines[len(lines)-1] != "4/4 400" {
		t.Errorf("last progress line %q", lines[len(lines)-1])
	}
}

func TestProgressAccumulatesAcrossMaps(t *testing.T) {
	p := New(4)
	Map(p, squareJobs(3))
	Map(p, squareJobs(2))
	snap := p.Progress()
	if snap.JobsDone != 5 || snap.JobsTotal != 5 {
		t.Errorf("cumulative jobs %d/%d, want 5/5", snap.JobsDone, snap.JobsTotal)
	}
}

func TestPrinterFormat(t *testing.T) {
	var b strings.Builder
	Printer(&b)(Snapshot{JobsDone: 3, JobsTotal: 9, SimCycles: 1_500_000,
		Elapsed: 3 * time.Second, Label: "fig8/tk-i/P=4"})
	out := b.String()
	if !strings.Contains(out, "3/9 jobs") || !strings.Contains(out, "1.50M sim-cycles") ||
		!strings.Contains(out, "fig8/tk-i/P=4") {
		t.Errorf("printer line %q", out)
	}
	// 3 jobs in 3s leaves 6 jobs ≈ 6s remaining.
	if !strings.Contains(out, "eta 6s") {
		t.Errorf("printer line %q missing ETA", out)
	}
	// The final job prints "done" instead of an ETA.
	b.Reset()
	Printer(&b)(Snapshot{JobsDone: 9, JobsTotal: 9, Elapsed: time.Second, Label: "last"})
	if !strings.Contains(b.String(), "done") {
		t.Errorf("final printer line %q lacks completion marker", b.String())
	}
}

func TestSnapshotETA(t *testing.T) {
	// Half the jobs took 10s: the other half should take ~10s more.
	s := Snapshot{JobsDone: 5, JobsTotal: 10, Elapsed: 10 * time.Second}
	if got := s.ETA(); got != 10*time.Second {
		t.Errorf("ETA = %v, want 10s", got)
	}
	// No completed jobs or all done: no estimate.
	if got := (Snapshot{JobsTotal: 4, Elapsed: time.Second}).ETA(); got != 0 {
		t.Errorf("ETA with no completions = %v, want 0", got)
	}
	if got := (Snapshot{JobsDone: 4, JobsTotal: 4, Elapsed: time.Second}).ETA(); got != 0 {
		t.Errorf("ETA when finished = %v, want 0", got)
	}
}

func TestFormatCycles(t *testing.T) {
	cases := map[float64]string{
		0:             "0",
		999:           "999",
		25_000:        "25.0K",
		3_200_000:     "3.20M",
		7_800_000_000: "7.80G",
	}
	for v, want := range cases {
		if got := formatCycles(v); got != want {
			t.Errorf("formatCycles(%g) = %q, want %q", v, got, want)
		}
	}
}

func TestMapCompletesWithLiveContext(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx := context.Background()
		got := Map(NewWithContext(ctx, workers), squareJobs(12))
		if err := ctx.Err(); err != nil {
			t.Fatalf("workers=%d: err = %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapCancellationSkipsRemainingJobs(t *testing.T) {
	// Cancel after the third job; workers must check the context between
	// jobs and leave every unstarted result at its zero value.
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var started atomic.Int32
		jobs := make([]Job[int], 50)
		for i := range jobs {
			i := i
			jobs[i] = Job[int]{Label: fmt.Sprintf("job%d", i), Run: func() int {
				if started.Add(1) == 3 {
					cancel()
				}
				time.Sleep(time.Millisecond)
				return i + 1
			}}
		}
		got := Map(NewWithContext(ctx, workers), jobs)
		if ctx.Err() == nil {
			t.Fatalf("workers=%d: Map returned under a live context despite the cancel", workers)
		}
		ran := int(started.Load())
		// Every in-flight job finishes (at most one per worker plus the
		// cancelling one); everything else must have been skipped.
		if ran >= len(jobs) {
			t.Fatalf("workers=%d: all %d jobs ran despite cancellation", workers, ran)
		}
		var nonzero int
		for _, v := range got {
			if v != 0 {
				nonzero++
			}
		}
		if nonzero != ran {
			t.Fatalf("workers=%d: %d results set but %d jobs ran", workers, nonzero, ran)
		}
		cancel()
	}
}

func TestMapDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done()
	got := Map(NewWithContext(ctx, 4), squareJobs(8))
	if err := ctx.Err(); err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("result[%d] = %d after expired deadline", i, v)
		}
	}
}

func TestMapHonorsBoundContext(t *testing.T) {
	// A pool built with NewWithContext cancels plain Map calls too — the
	// hook the service uses to cancel sweeps it did not write.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	jobs := make([]Job[int], 6)
	for i := range jobs {
		jobs[i] = Job[int]{Label: "j", Run: func() int { ran.Add(1); return 1 }}
	}
	Map(NewWithContext(ctx, 3), jobs)
	if ran.Load() != 0 {
		t.Fatalf("%d jobs ran under a cancelled bound context", ran.Load())
	}
}
