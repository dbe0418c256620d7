// Command benchcore runs the simulator's core performance benchmarks and
// writes the results as machine-readable JSON (BENCH_core.json). It exists
// so performance numbers can be captured, committed, and compared across
// revisions without parsing `go test -bench` text output.
//
//	benchcore                         # run, write BENCH_core.json
//	benchcore -benchtime 200ms        # quick smoke run (CI)
//	benchcore -compare BENCH_core.json -out /tmp/new.json
//	benchcore -compare BENCH_core.json -gate   # CI gate: fail on regression
//
// With -compare, a benchstat-style old-vs-new table is printed after the
// run (suitable for a CI job summary). Adding -gate turns the comparison
// into a pass/fail check: a >15% ns/op regression or any allocs/op
// increase against the baseline exits non-zero (set BENCH_GATE=off to
// override, e.g. when intentionally rebasing the committed baseline).
// Benchmarks cover the engine event core (scheduling, stall fast path,
// park/resume), the memory-system data path (block fetch, cache
// install/evict), and machine-level workloads (event throughput on
// pooled machines, read-hit issue, reset/reuse cycling, a full lock
// run); events per second is reported where a run exposes its
// processed-event count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	core "coherencesim"
	"coherencesim/internal/cache"
	"coherencesim/internal/mem"
	"coherencesim/internal/sim"
	"coherencesim/internal/trace"
)

// Result is one benchmark's measurement in BENCH_core.json.
type Result struct {
	Name         string  `json:"name"`
	Iterations   int     `json:"iterations"`
	NsPerOp      float64 `json:"ns_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// File is the BENCH_core.json document.
type File struct {
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Benchtime string   `json:"benchtime"`
	Results   []Result `json:"results"`
}

// bench is one named benchmark. The function returns the number of
// simulation events processed during the timed run (0 when the notion
// does not apply), which yields events_per_sec.
type bench struct {
	name string
	fn   func(b *testing.B) uint64
}

func engineScheduleRun(b *testing.B) uint64 {
	b.ReportAllocs()
	e := sim.NewEngine()
	const depth = 512
	remaining := b.N
	var fn func()
	fn = func() {
		if remaining > 0 {
			remaining--
			e.Schedule(sim.Time(remaining%7+1), fn)
		}
	}
	for i := 0; i < depth; i++ {
		e.Schedule(sim.Time(i%7+1), fn)
	}
	b.ResetTimer()
	e.Run()
	return e.Processed()
}

// ticker keeps one event per cycle queued until *done, which denies
// StallFor its in-place fast path.
func ticker(e *sim.Engine, done *bool) {
	var tick func()
	tick = func() {
		if !*done {
			e.Schedule(1, tick)
		}
	}
	e.Schedule(1, tick)
}

// stallLoop runs b.N StallFor(d) calls on one Task; finished is set when
// the loop completes.
func stallLoop(b *testing.B, e *sim.Engine, d sim.Time, finished *bool) uint64 {
	b.ReportAllocs()
	var t sim.Task
	i := 0
	t.Init(e, "bench", func() {
		for i < b.N {
			i++
			if !t.StallFor(d) {
				return
			}
		}
		*finished = true
		t.End()
	})
	t.Begin()
	b.ResetTimer()
	e.Run()
	return e.Processed()
}

// engineStallFastPath: a lone task with nothing else queued, so every
// StallFor advances the clock in place.
func engineStallFastPath(b *testing.B) uint64 {
	var finished bool
	return stallLoop(b, sim.NewEngine(), 1, &finished)
}

// engineResume: a ticker denies the fast path, so every stall queues a
// wake, parks, and is re-entered by a direct resume call.
func engineResume(b *testing.B) uint64 {
	e := sim.NewEngine()
	done := false
	ticker(e, &done)
	return stallLoop(b, e, 2, &done)
}

// fetchAddProgram is the event-throughput body: n fetch-and-adds on one
// shared counter.
// Registers: I0 iteration.
type fetchAddProgram struct {
	ctr core.Addr
	n   int
}

func (g *fetchAddProgram) Step(p *core.Proc, f *core.Frame) core.OpStatus {
	for f.I0 < g.n {
		f.I0++
		f.PC = 0
		return p.FFetchAdd(g.ctr, 1)
	}
	return core.OpDone
}

func machineEventThroughput(b *testing.B) uint64 {
	b.ReportAllocs()
	prog := &fetchAddProgram{n: 50}
	var events uint64
	for i := 0; i < b.N; i++ {
		m := core.AcquireMachine(core.DefaultConfig(core.CU, 32))
		prog.ctr = m.Alloc("ctr", 4, 0)
		events += m.RunProgram(prog).SimEvents
		m.Release()
	}
	return events
}

// machineEventThroughputTraced is machineEventThroughput with the
// transaction tracer attached: the all-in cost of causal transaction
// tracing on the hottest machine-level path. Its untraced twin is what
// the tight tracing gate protects; this one documents the tracing tax.
func machineEventThroughputTraced(b *testing.B) uint64 {
	b.ReportAllocs()
	prog := &fetchAddProgram{n: 50}
	cycle := func() uint64 {
		cfg := core.DefaultConfig(core.CU, 32)
		cfg.Txn = trace.NewTracer(cfg.Procs, 0)
		m := core.AcquireMachine(cfg)
		prog.ctr = m.Alloc("ctr", 4, 0)
		res := m.RunProgram(prog)
		m.Release()
		return res.SimEvents
	}
	// Untimed warmup (see machineResetReuse): one-time pool and arena
	// growth must not amortize over a benchtime-dependent b.N, or
	// allocs/op rounds differently between runs and the gate misfires.
	cycle()
	var events uint64
	n := b.N
	b.ResetTimer()
	for i := 0; i < n; i++ {
		events += cycle()
	}
	return events
}

// memBlockFetch measures the raw memory-module block-read path: borrow a
// frame once, then issue back-to-back block reads into it, draining the
// engine after each. Steady state must be allocation-free.
func memBlockFetch(b *testing.B) uint64 {
	b.ReportAllocs()
	e := sim.NewEngine()
	mcfg := mem.DefaultConfig()
	st := mem.NewStore(mcfg.WordsBlock)
	m := mem.NewModuleWithStore(e, 0, mcfg, st)
	frame := st.BorrowFrame()
	done := func() {}
	n := b.N
	b.ResetTimer()
	for i := 0; i < n; i++ {
		m.ReadBlockInto(uint32(i&63), frame, done)
		e.Run()
	}
	return e.Processed()
}

// cacheInstallEvict measures the cache line install/evict cycle: two
// blocks conflicting on one frame, so every install evicts the other.
func cacheInstallEvict(b *testing.B) uint64 {
	b.ReportAllocs()
	c := cache.New(0, 64*1024)
	var data [16]uint32
	b0, b1 := uint32(0), uint32(c.NumLines())
	n := b.N
	b.ResetTimer()
	for i := 0; i < n; i++ {
		blk := b0
		if i&1 == 1 {
			blk = b1
		}
		c.Install(blk, data[:], cache.Shared)
	}
	return 0
}

// machineResetReuse measures the sweep-point cycle on one pooled
// machine: Reset, re-allocate, run the event-throughput workload. The
// delta against MachineEventThroughput's first-iteration cost is what
// machine reuse saves per sweep point; the delta against
// MachineResetOnly is the run itself.
func machineResetReuse(b *testing.B) uint64 {
	b.ReportAllocs()
	cfg := core.DefaultConfig(core.CU, 32)
	m := core.NewMachine(cfg)
	prog := &fetchAddProgram{n: 50}
	cycle := func() uint64 {
		if !m.Reset(cfg) {
			panic("benchcore: machine Reset refused")
		}
		prog.ctr = m.Alloc("ctr", 4, 0)
		return m.RunProgram(prog).SimEvents
	}
	// Untimed warmup: the first cycles grow free lists, the event arena,
	// and message pools. Without it those one-time allocations amortize
	// over a benchtime-dependent b.N and allocs/op stops being a stable
	// (gateable) number.
	for i := 0; i < 3; i++ {
		cycle()
	}
	var events uint64
	n := b.N
	b.ResetTimer()
	for i := 0; i < n; i++ {
		events += cycle()
	}
	return events
}

// machineResetOnly isolates the Reset half of the sweep-point cycle:
// the run that dirties the machine happens outside the timer, so the
// measured op is exactly Reset plus the re-allocation. Subtract this
// from MachineResetReuse to get the pure run cost on a reused machine.
func machineResetOnly(b *testing.B) uint64 {
	b.ReportAllocs()
	cfg := core.DefaultConfig(core.CU, 32)
	m := core.NewMachine(cfg)
	prog := &fetchAddProgram{n: 50}
	dirty := func() {
		prog.ctr = m.Alloc("ctr", 4, 0)
		m.RunProgram(prog)
	}
	dirty()
	for i := 0; i < 3; i++ { // untimed warmup (see machineResetReuse)
		if !m.Reset(cfg) {
			panic("benchcore: machine Reset refused")
		}
		dirty()
	}
	n := b.N
	b.ResetTimer()
	for i := 0; i < n; i++ {
		if !m.Reset(cfg) {
			panic("benchcore: machine Reset refused")
		}
		b.StopTimer()
		dirty()
		b.StartTimer()
	}
	return 0
}

// machineSnapshotFork measures the per-fork cycle of the warm-fork
// drivers (workload.Warm*.Run): acquire a pooled machine, rebuild the
// allocation map, restore the shared warm checkpoint, run the measured
// continuation, release. The checkpoint itself is built once, outside
// the timer.
func machineSnapshotFork(b *testing.B) uint64 {
	b.ReportAllocs()
	cfg := core.DefaultConfig(core.CU, 32)
	warm := core.AcquireMachine(cfg)
	wprog := &fetchAddProgram{ctr: warm.Alloc("ctr", 4, 0), n: 25}
	warmEvents := warm.RunProgram(wprog).SimEvents
	snap := warm.Snapshot()
	warm.Release()
	prog := &fetchAddProgram{n: 25}
	cycle := func() uint64 {
		m := core.AcquireMachine(cfg)
		prog.ctr = m.Alloc("ctr", 4, 0)
		m.RestoreFrom(snap)
		res := m.RunProgram(prog)
		m.Release()
		// SimEvents is cumulative over the restored run; report only the
		// continuation's share.
		return res.SimEvents - warmEvents
	}
	cycle() // untimed warmup (see machineResetReuse)
	var events uint64
	n := b.N
	b.ResetTimer()
	for i := 0; i < n; i++ {
		events += cycle()
	}
	return events
}

// readHitProgram writes one word, then reads it n times: every read
// hits. PC 0 write, 1 fence, 2 reads; register I0 counts them.
type readHitProgram struct {
	x core.Addr
	n int
}

func (g *readHitProgram) Step(p *core.Proc, f *core.Frame) core.OpStatus {
	switch f.PC {
	case 0:
		f.PC = 1
		return p.FWrite(g.x, 7)
	case 1:
		f.PC = 2
		return p.FFence()
	}
	for f.I0 < g.n {
		f.I0++
		return p.FRead(g.x)
	}
	return core.OpDone
}

func machineReadHitIssue(b *testing.B) uint64 {
	b.ReportAllocs()
	m := core.NewMachine(core.DefaultConfig(core.WI, 1))
	prog := &readHitProgram{x: m.Alloc("x", 4, 0), n: b.N}
	b.ResetTimer()
	return m.RunProgram(prog).SimEvents
}

func singleLockRun(b *testing.B) uint64 {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		p := core.DefaultLockParams(core.CU, 32)
		p.Iterations = 1600
		res := core.LockLoop(p, core.MCS)
		events += res.SimEvents
	}
	return events
}

func singleLockRunTraced(b *testing.B) uint64 {
	b.ReportAllocs()
	cycle := func() uint64 {
		p := core.DefaultLockParams(core.CU, 32)
		p.Iterations = 1600
		p.Breakdown = true
		return core.LockLoop(p, core.MCS).SimEvents
	}
	cycle() // untimed warmup (see machineEventThroughputTraced)
	var events uint64
	n := b.N
	b.ResetTimer()
	for i := 0; i < n; i++ {
		events += cycle()
	}
	return events
}

var benches = []bench{
	{"EngineScheduleRun", engineScheduleRun},
	{"EngineStallForFastPath", engineStallFastPath},
	{"EngineResume", engineResume},
	{"MachineEventThroughput", machineEventThroughput},
	{"MachineEventThroughputTraced", machineEventThroughputTraced},
	{"MachineReadHitIssue", machineReadHitIssue},
	{"MemBlockFetch", memBlockFetch},
	{"CacheInstallEvict", cacheInstallEvict},
	{"MachineResetReuse", machineResetReuse},
	{"MachineResetOnly", machineResetOnly},
	{"MachineSnapshotFork", machineSnapshotFork},
	{"SingleLockRun", singleLockRun},
	{"SingleLockRunTraced", singleLockRunTraced},
}

// allocCaps are absolute allocs/op ceilings, checked on every run (no
// -compare needed): the machine-level steady-state paths are expected
// to be allocation-free apart from the per-op pool round trip, so a cap
// far below a per-event count catches any slide toward per-event
// allocation even when the committed baseline moves.
var allocCaps = map[string]int64{
	"EngineScheduleRun":      2,
	"EngineStallForFastPath": 2,
	"EngineResume":           2,
	"MachineEventThroughput": 8,
	"MachineResetReuse":      8,
	"MachineSnapshotFork":    16,
	// One lock run on a pooled machine is per-run scaffolding only — the
	// MCS lock's 32 queue nodes and their names, result assembly — since
	// fences, hand-offs and the classifier allocate nothing per operation
	// (measured 70; one object per lock release would add 1600).
	"SingleLockRun": 88,
	// The traced twins are capped too: span retention shares one target
	// arena, per-block heat is a value map, and the fixed-cap buffers
	// allocate once, so the counts are small and stable (measured 259 and
	// 190 — the caps leave ~25 % headroom for map-growth jitter, not for a
	// slide back to per-span copying at ~2400/6000).
	"MachineEventThroughputTraced": 512,
	"SingleLockRunTraced":          240,
}

func run(benchtime string) (File, error) {
	if err := flag.Set("test.benchtime", benchtime); err != nil {
		return File{}, fmt.Errorf("invalid -benchtime %q: %w", benchtime, err)
	}
	f := File{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Benchtime: benchtime,
	}
	for _, bm := range benches {
		var events uint64
		r := testing.Benchmark(func(b *testing.B) {
			events = bm.fn(b)
		})
		res := Result{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if events > 0 && r.T > 0 {
			res.EventsPerSec = float64(events) / r.T.Seconds()
		}
		fmt.Printf("%-28s %12d iters %14.1f ns/op %8d allocs/op %10.0f events/s\n",
			bm.name, res.Iterations, res.NsPerOp, res.AllocsPerOp, res.EventsPerSec)
		if cap, ok := allocCaps[bm.name]; ok && res.AllocsPerOp > cap {
			return f, fmt.Errorf("%s: %d allocs/op exceeds the absolute cap of %d", bm.name, res.AllocsPerOp, cap)
		}
		f.Results = append(f.Results, res)
	}
	return f, nil
}

// gateNsSlack is the allowed ns/op regression before the -gate check
// fails. Timing on shared CI runners is noisy, so the bound is
// generous; allocs/op is deterministic and gets no slack at all.
const gateNsSlack = 1.15

// tracingGated names the benchmarks that exercise hot paths with the
// transaction tracer disabled. Tracing must be free when off, so these
// carry a much tighter ns/op bound than the general gate (their traced
// twins measure the opt-in cost and get only the general bound).
var tracingGated = map[string]bool{
	"MachineEventThroughput": true,
	"SingleLockRun":          true,
}

// tracingNsSlack bounds the tracing-disabled benchmarks: 2% ns/op
// drift against baseline. Allocs/op increases already fail globally.
const tracingNsSlack = 1.02

// tracedAllocSlack is the absolute allocs/op tolerance for the traced
// documentation benches (the "...Traced" twins). They allocate
// thousands of objects per op, so a handful of stray runtime
// allocations landing in the timed window shifts the rounded per-op
// average by one between otherwise identical runs. The tracing-off
// benchmarks keep the zero-slack rule — their per-op counts are small
// and have proven exactly stable.
const tracedAllocSlack = 2

// compare prints a benchstat-style old-vs-new table and returns the
// gate violations (ns/op regressions beyond the slack, or any allocs/op
// increase) for the caller to enforce under -gate.
func compare(oldPath string, cur File) ([]string, error) {
	raw, err := os.ReadFile(oldPath)
	if err != nil {
		return nil, err
	}
	var old File
	if err := json.Unmarshal(raw, &old); err != nil {
		return nil, fmt.Errorf("parse %s: %w", oldPath, err)
	}
	prev := make(map[string]Result, len(old.Results))
	for _, r := range old.Results {
		prev[r.Name] = r
	}
	var violations []string
	fmt.Printf("\n%-28s %14s %14s %8s %16s\n", "benchmark", "old ns/op", "new ns/op", "delta", "allocs old→new")
	for _, r := range cur.Results {
		o, ok := prev[r.Name]
		if !ok {
			fmt.Printf("%-28s %14s %14.1f %8s %16d\n", r.Name, "-", r.NsPerOp, "new", r.AllocsPerOp)
			continue
		}
		delta := "~"
		if o.NsPerOp > 0 {
			delta = fmt.Sprintf("%+.1f%%", (r.NsPerOp-o.NsPerOp)/o.NsPerOp*100)
		}
		fmt.Printf("%-28s %14.1f %14.1f %8s %10d→%d\n",
			r.Name, o.NsPerOp, r.NsPerOp, delta, o.AllocsPerOp, r.AllocsPerOp)
		slack := gateNsSlack
		if tracingGated[r.Name] {
			slack = tracingNsSlack
		}
		if o.NsPerOp > 0 && r.NsPerOp > o.NsPerOp*slack {
			violations = append(violations, fmt.Sprintf(
				"%s: %.1f ns/op vs baseline %.1f (>%.0f%% regression)",
				r.Name, r.NsPerOp, o.NsPerOp, (slack-1)*100))
		}
		allocSlack := int64(0)
		if strings.HasSuffix(r.Name, "Traced") {
			allocSlack = tracedAllocSlack
		}
		if r.AllocsPerOp > o.AllocsPerOp+allocSlack {
			violations = append(violations, fmt.Sprintf(
				"%s: %d allocs/op vs baseline %d (allocation regression)",
				r.Name, r.AllocsPerOp, o.AllocsPerOp))
		}
	}
	return violations, nil
}

func main() {
	testing.Init()
	out := flag.String("out", "BENCH_core.json", "output path for the JSON results")
	benchtime := flag.String("benchtime", "1s", "per-benchmark measuring time (accepts 200ms, 100x, ...)")
	comparePath := flag.String("compare", "", "existing BENCH_core.json to print an old-vs-new table against")
	gate := flag.Bool("gate", false, "with -compare: exit 1 on a >15% ns/op regression or any allocs/op increase (BENCH_GATE=off overrides)")
	flag.Parse()

	f, err := run(*benchtime)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcore:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchcore:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchcore:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
	if *comparePath != "" {
		violations, err := compare(*comparePath, f)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcore: compare:", err)
			os.Exit(1)
		}
		if *gate && len(violations) > 0 {
			if os.Getenv("BENCH_GATE") == "off" {
				fmt.Fprintf(os.Stderr, "benchcore: gate overridden (BENCH_GATE=off); %d violation(s) ignored\n", len(violations))
				return
			}
			fmt.Fprintln(os.Stderr, "benchcore: performance gate failed:")
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "  -", v)
			}
			fmt.Fprintln(os.Stderr, "benchcore: refresh BENCH_core.json if intentional, or set BENCH_GATE=off / apply the bench-baseline-bump label to override")
			os.Exit(1)
		}
	}
}
