package main

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"coherencesim/internal/cache"
	"coherencesim/internal/experiments"
	"coherencesim/internal/fleet"
	"coherencesim/internal/machine"
	"coherencesim/internal/mc"
	"coherencesim/internal/mem"
	"coherencesim/internal/mesh"
	"coherencesim/internal/proto"
	"coherencesim/internal/runner"
	"coherencesim/internal/sim"
	"coherencesim/internal/store"
	"coherencesim/internal/trace"
	"coherencesim/internal/workload"
)

// The per-layer probes time each layer from outside, through exported
// entry points only. They are the same in every traced run, whatever
// the workload, so a layer's number can be read next to any workload's
// end-to-end numbers. Each timed probe gets the same small budget; the
// fixed-size ones (model checker, fleet rounds, store, service) take
// what they take.

type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"` // samples behind the value, where it is a median or percentile
}

type probeSet struct {
	budget  time.Duration
	p       int
	metrics []metric
	errs    []string
}

func (ps *probeSet) put(name string, v float64, unit string) {
	ps.metrics = append(ps.metrics, metric{Name: name, Value: v, Unit: unit})
}

func (ps *probeSet) putN(name string, v float64, unit string, n int) {
	ps.metrics = append(ps.metrics, metric{Name: name, Value: v, Unit: unit, N: n})
}

func (ps *probeSet) fail(format string, args ...any) {
	ps.errs = append(ps.errs, fmt.Sprintf(format, args...))
}

// samples calls fn, which returns one timed duration, until the budget
// is spent (at least five times).
func samples(budget time.Duration, fn func() time.Duration) []float64 {
	var out []float64
	for t0 := time.Now(); len(out) < 5 || time.Since(t0) < budget; {
		out = append(out, float64(fn().Nanoseconds()))
	}
	return out
}

func runProbes(budget time.Duration, p int) *probeSet {
	ps := &probeSet{budget: budget, p: p}
	ps.simProbes()
	ps.memoryProbes()
	ps.machineProbes()
	ps.workloadProbes()
	ps.experimentsProbes()
	ps.runnerProbes()
	ps.sweepProbes()
	ps.storeProbes()
	ps.serviceProbes()
	ps.mcProbe()
	return ps
}

// ---- sim ----

// wheelHorizon is past the event wheel's second level (256 x 256
// cycles), so a delay this long takes the overflow path.
const wheelHorizon = 1 << 17

func scheduleRun(n int, base sim.Time) {
	e := sim.NewEngine()
	remaining := n
	var fn func()
	fn = func() {
		if remaining > 0 {
			remaining--
			e.Schedule(base+sim.Time(remaining%7+1), fn)
		}
	}
	for i := 0; i < 512; i++ {
		e.Schedule(base+sim.Time(i%7+1), fn)
	}
	e.Run()
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

func (ps *probeSet) simProbes() {
	ps.put("sim.schedule_ns", perOp(ps.budget, func(n int) { scheduleRun(n, 0) }), "ns")
	ps.put("sim.far_schedule_ns", perOp(ps.budget, func(n int) { scheduleRun(n, wheelHorizon) }), "ns")
	ps.put("sim.stall_fastpath_ns", perOp(ps.budget, func(n int) {
		e := sim.NewEngine()
		var t sim.Task
		i := 0
		t.Init(e, "bench", func() {
			for i < n {
				i++
				if !t.StallFor(1) {
					return
				}
			}
			t.End()
		})
		t.Begin()
		e.Run()
	}), "ns")
	ps.put("sim.resume_ns", perOp(ps.budget, func(n int) {
		e := sim.NewEngine()
		done := false
		ticker(e, &done)
		var t sim.Task
		i := 0
		t.Init(e, "bench", func() {
			for i < n {
				i++
				if !t.StallFor(2) {
					return
				}
			}
			done = true
			t.End()
		})
		t.Begin()
		e.Run()
	}), "ns")
}

// ---- mem, cache, mesh ----

func (ps *probeSet) memoryProbes() {
	ps.put("mem.block_fetch_ns", perOp(ps.budget, func(n int) {
		e := sim.NewEngine()
		cfg := mem.DefaultConfig()
		st := mem.NewStore(cfg.WordsBlock)
		m := mem.NewModuleWithStore(e, 0, cfg, st)
		frame := st.BorrowFrame()
		done := func() {}
		for i := 0; i < n; i++ {
			m.ReadBlockInto(uint32(i&63), frame, done)
			e.Run()
		}
	}), "ns")
	ps.put("cache.install_evict_ns", perOp(ps.budget, func(n int) {
		c := cache.New(0, 64*1024)
		var data [16]uint32
		blocks := [2]uint32{0, uint32(c.NumLines())} // conflict on one frame
		for i := 0; i < n; i++ {
			c.Install(blocks[i&1], data[:], cache.Shared)
		}
	}), "ns")
	ps.put("mesh.send_ns", perOp(ps.budget, func(n int) {
		e := sim.NewEngine()
		nw := mesh.New(e, 32, mesh.DefaultConfig())
		deliver := func() {}
		for i := 0; i < n; i++ {
			nw.Send(i&31, (i*7+3)&31, 72, deliver)
			e.Run()
		}
	}), "ns")
}

// ---- proto via machine; machine reuse and fork; tracing tax ----

// fetchAdd is the event-throughput program: n fetch-and-adds per
// processor on one shared counter. Register I0 counts iterations.
type fetchAdd struct {
	ctr machine.Addr
	n   int
}

func (g *fetchAdd) Step(p *machine.Proc, f *machine.Frame) machine.OpStatus {
	for f.I0 < g.n {
		f.I0++
		f.PC = 0
		return p.FFetchAdd(g.ctr, 1)
	}
	return machine.OpDone
}

// readHit writes one word, then reads it n times: every read hits.
// PC 0 write, 1 fence, 2 reads.
type readHit struct {
	x machine.Addr
	n int
}

func (g *readHit) Step(p *machine.Proc, f *machine.Frame) machine.OpStatus {
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
	return machine.OpDone
}

// fetchAddCycle is one sweep-point cycle on a pooled 32-processor
// machine: acquire, allocate, run, release.
func fetchAddCycle(cfg machine.Config, prog *fetchAdd) uint64 {
	m := machine.Acquire(cfg)
	prog.ctr = m.Alloc("ctr", 4, 0)
	ev := m.RunProgram(prog).SimEvents
	m.Release()
	return ev
}

// perEvent runs cycle (which returns the events it simulated) until the
// budget is spent and returns host ns per simulated event. One untimed
// call first, so pools and arenas have grown.
func perEvent(budget time.Duration, cycle func() uint64) float64 {
	cycle()
	var events uint64
	t0 := time.Now()
	for time.Since(t0) < budget {
		events += cycle()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(events)
}

func (ps *probeSet) machineProbes() {
	prog := &fetchAdd{n: 50}
	var cu float64
	for _, pr := range []struct {
		name string
		p    proto.Protocol
	}{{"wi", proto.WI}, {"pu", proto.PU}, {"cu", proto.CU}} {
		cfg := machine.DefaultConfig(pr.p, 32)
		cu = perEvent(ps.budget, func() uint64 { return fetchAddCycle(cfg, prog) })
		ps.put("machine.run_"+pr.name+"_ns_per_event", cu, "ns")
	}
	cfg := machine.DefaultConfig(proto.CU, 32)

	var ms0, ms1 runtime.MemStats
	const allocRuns = 20
	runtime.ReadMemStats(&ms0)
	for i := 0; i < allocRuns; i++ {
		fetchAddCycle(cfg, prog)
	}
	runtime.ReadMemStats(&ms1)
	ps.put("machine.run_allocs", float64(ms1.Mallocs-ms0.Mallocs)/allocRuns, "count")

	ps.put("machine.read_hit_ns", perOp(ps.budget, func(n int) {
		m := machine.Acquire(machine.DefaultConfig(proto.WI, 1))
		m.RunProgram(&readHit{x: m.Alloc("x", 4, 0), n: n})
		m.Release()
	}), "ns")

	ar := samples(ps.budget, func() time.Duration {
		t0 := time.Now()
		machine.Acquire(cfg).Release()
		return time.Since(t0)
	})
	ps.putN("machine.acquire_release_us", median(ar)/1e3, "us", len(ar))

	m := machine.Acquire(cfg)
	rs := samples(ps.budget, func() time.Duration {
		prog.ctr = m.Alloc("ctr", 4, 0)
		m.RunProgram(prog) // dirty the machine, untimed
		t0 := time.Now()
		if !m.Reset(cfg) {
			panic("bench: machine Reset refused its own configuration")
		}
		return time.Since(t0)
	})
	ps.putN("machine.reset_us", median(rs)/1e3, "us", len(rs))

	// Warm checkpoint: half the run, as the warm-fork drivers split it.
	half := &fetchAdd{ctr: m.Alloc("ctr", 4, 0), n: 25}
	warmEvents := m.RunProgram(half).SimEvents
	var snap *machine.Snapshot
	ss := samples(ps.budget, func() time.Duration {
		t0 := time.Now()
		snap = m.Snapshot()
		return time.Since(t0)
	})
	m.Release()
	ps.putN("machine.snapshot_us", median(ss)/1e3, "us", len(ss))

	rest := &fetchAdd{n: 25}
	var restore []float64
	fork := perEvent(ps.budget, func() uint64 {
		f := machine.Acquire(cfg)
		rest.ctr = f.Alloc("ctr", 4, 0)
		t0 := time.Now()
		f.RestoreFrom(snap)
		restore = append(restore, float64(time.Since(t0).Nanoseconds()))
		ev := f.RunProgram(rest).SimEvents - warmEvents
		f.Release()
		return ev
	})
	ps.putN("machine.restore_us", median(restore)/1e3, "us", len(restore))
	ps.put("machine.fork_run_ns_per_event", fork, "ns")

	traced := perEvent(ps.budget, func() uint64 {
		tc := cfg
		tc.Txn = trace.NewTracer(tc.Procs, 0)
		return fetchAddCycle(tc, prog)
	})
	ps.put("machine.run_traced_ns_per_event", traced, "ns")
	ps.put("trace.tax_ratio", traced/cu, "ratio")
}

// ---- constructs / workload ----

func (ps *probeSet) workloadProbes() {
	lock := workload.DefaultLockParams(proto.CU, 32)
	lock.Iterations = 1600
	ps.put("workload.lock_mcs_cu_ns_per_event", perEvent(ps.budget, func() uint64 {
		return workload.LockLoop(lock, workload.MCS).SimEvents
	}), "ns")
	tracedLock := lock
	tracedLock.Breakdown = true
	ps.put("workload.lock_traced_ns_per_event", perEvent(ps.budget, func() uint64 {
		return workload.LockLoop(tracedLock, workload.MCS).SimEvents
	}), "ns")
	bar := workload.DefaultBarrierParams(proto.CU, 32)
	bar.Iterations = 250
	ps.put("workload.barrier_tree_cu_ns_per_event", perEvent(ps.budget, func() uint64 {
		return workload.BarrierLoop(bar, workload.Tree).SimEvents
	}), "ns")
	red := workload.DefaultReductionParams(proto.CU, 32)
	red.Iterations = 250
	ps.put("workload.reduction_seq_cu_ns_per_event", perEvent(ps.budget, func() uint64 {
		return workload.ReductionLoop(red, workload.Sequential).SimEvents
	}), "ns")

	// Cost of running the lock loop in two phases (warm-up, checkpoint,
	// fork, rest) against running it in one.
	one := samples(ps.budget, func() time.Duration {
		t0 := time.Now()
		workload.LockLoop(lock, workload.MCS)
		return time.Since(t0)
	})
	two := samples(ps.budget, func() time.Duration {
		t0 := time.Now()
		workload.WarmLockLoop(lock, workload.MCS, workload.PlainLock).Run()
		return time.Since(t0)
	})
	ps.put("workload.warm_split_overhead_frac", median(two)/median(one)-1, "frac")
}

// ---- experiments ----

func (ps *probeSet) experimentsProbes() {
	ctx := context.Background()
	pt := experiments.Point{Family: experiments.FamilyBarrier, Kind: int(workload.Tree), Protocol: proto.CU, Procs: 4, Iterations: 60}
	run := func(pt experiments.Point, forks *experiments.WarmForkCache) experiments.PointResult {
		res, err := experiments.RunPointForked(ctx, pt, forks)
		if err != nil {
			ps.fail("RunPointForked: %v", err)
		}
		return res
	}
	var res experiments.PointResult
	plain := samples(ps.budget, func() time.Duration {
		t0 := time.Now()
		res = run(pt, nil)
		return time.Since(t0)
	})
	ps.putN("experiments.point_plain_us", median(plain)/1e3, "us", len(plain))
	warm := pt
	warm.WarmFork = true
	build := samples(ps.budget, func() time.Duration {
		t0 := time.Now()
		run(warm, experiments.NewWarmForkCache())
		return time.Since(t0)
	})
	ps.putN("experiments.point_warm_build_us", median(build)/1e3, "us", len(build))
	forks := experiments.NewWarmForkCache()
	run(warm, forks)
	fork := samples(ps.budget, func() time.Duration {
		t0 := time.Now()
		run(warm, forks)
		return time.Since(t0)
	})
	ps.putN("experiments.point_warm_fork_us", median(fork)/1e3, "us", len(fork))

	var key string
	ps.put("experiments.point_key_ns", perOp(ps.budget, func(n int) {
		for i := 0; i < n; i++ {
			key = pt.Key()
		}
	}), "ns")
	_ = key
	var doc []byte
	ps.put("experiments.result_json_us", perOp(ps.budget, func(n int) {
		for i := 0; i < n; i++ {
			doc, _ = json.Marshal(res) // a PointResult is plain data
		}
	})/1e3, "us")
	ps.put("experiments.result_json_bytes", float64(len(doc)), "bytes")
}

// ---- runner ----

func (ps *probeSet) runnerProbes() {
	pool := runner.New(ps.p)
	noop := make([]runner.Job[int], 1000)
	for i := range noop {
		noop[i] = runner.Job[int]{Run: func() int { return 0 }}
	}
	ps.put("runner.map_overhead_us", perOp(ps.budget, func(n int) {
		for i := 0; i < n; i++ {
			runner.Map(pool, noop)
		}
	})/float64(len(noop))/1e3, "us")

	// Figure 14 at figures_long length: the shortest of its three.
	o := experiments.Defaults()
	o.ReductionEpisodes = 2500
	wall := func(workers int) time.Duration {
		o.Runner = runner.New(workers)
		t0 := time.Now()
		render("fig14", o)
		return time.Since(t0)
	}
	wp := wall(ps.p)
	w1 := wall(1)
	ps.put("runner.parallel_eff", w1.Seconds()/(float64(ps.p)*wp.Seconds()), "ratio")
}

// ---- one round, four ways: local, P workers, one worker, no worker ----

func (ps *probeSet) sweepProbes() {
	local := &streamWL{}
	if err := local.setup(0, ps.p); err != nil { // runs the warm-up round
		ps.fail("local round: %v", err)
		return
	}
	lr := local.round(0, nil, 0)
	local.teardown()
	ps.put("experiments.warm_checkpoints", float64(lr.checkpoints), "count")
	ps.put("experiments.warm_reuse_ratio", 1-float64(lr.checkpoints)/float64(lr.ops), "ratio")

	// fleetRound runs round 0 through a fresh fleet of the given size,
	// behind the measuring wrapper.
	fleetRound := func(workers int) (roundResult, *muxWrap, fleet.Stats, bool) {
		rig, err := startFleet(workers)
		if err != nil {
			ps.fail("fleet of %d: %v", workers, err)
			return roundResult{}, nil, fleet.Stats{}, false
		}
		defer rig.stop()
		wrap := newMuxWrap(rig.mux, nil, nil)
		rig.swap.set(wrap)
		w := &streamWL{fleet: true, rig: rig}
		r := w.round(0, nil, 0)
		for _, n := range r.notes {
			ps.fail("fleet of %d: %s", workers, n)
		}
		if r.digest != lr.digest {
			ps.fail("fleet of %d: tables differ from the local round's", workers)
		}
		return r, wrap, rig.coord.Stats(), true
	}

	full, wrap, st, ok := fleetRound(ps.p)
	if !ok {
		return
	}
	points := float64(full.ops)
	ps.put("fleet.batches", float64(st.Batches), "count")
	ps.put("fleet.stolen", float64(st.Stolen), "count")
	ps.put("fleet.dup_completes", float64(st.DupCompletes), "count")
	ps.put("fleet.shards_per_batch", float64(st.Dispatched)/float64(st.Batches), "ratio")
	reqs, wire := wrap.totals()
	ps.put("fleet.http_requests_per_point", float64(reqs)/points, "ratio")
	ps.put("fleet.wire_bytes_per_point", float64(wire)/points, "bytes")
	polls := wrap.route("/v1/fleet/poll").Latency
	ps.putN("fleet.poll_p50_us", median(seconds(polls))*1e6, "us", len(polls))
	ps.putN("fleet.poll_p99_us", percentile(seconds(polls), 99)*1e6, "us", len(polls))
	completes := wrap.route("/v1/fleet/complete").Latency
	ps.putN("fleet.complete_p50_us", median(seconds(completes))*1e6, "us", len(completes))
	ps.put("fleet.vs_local_ratio", full.wall.Seconds()/lr.wall.Seconds(), "ratio")

	if one, _, _, ok := fleetRound(1); ok {
		ps.put("fleet.parallel_eff", one.wall.Seconds()/(float64(ps.p)*full.wall.Seconds()), "ratio")
	}
	if zero, _, zst, ok := fleetRound(0); ok {
		ps.put("fleet.zero_worker_wall_s", zero.wall.Seconds(), "s")
		ps.put("fleet.local_runs", float64(zst.LocalRuns), "count")
	}
}

// ---- store ----

func (ps *probeSet) storeProbes() {
	dir, err := mkTemp("store-")
	if err != nil {
		ps.fail("store probe: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, 0)
	if err != nil {
		ps.fail("store.Open: %v", err)
		return
	}
	const entries = 1000
	body := make([]byte, 64<<10)
	if _, err := rand.Read(body); err != nil {
		ps.fail("store probe: %v", err)
		return
	}
	key := func(i int) string { return fmt.Sprintf("%064x", i) }
	puts := make([]float64, entries)
	for i := range puts {
		t0 := time.Now()
		err := st.Put(key(i), "done", body)
		puts[i] = time.Since(t0).Seconds() * 1e6
		if err != nil {
			ps.fail("store.Put: %v", err)
			return
		}
	}
	ps.putN("store.put_p50_us", median(puts), "us", entries)
	ps.putN("store.put_p99_us", percentile(puts, 99), "us", entries)

	t0 := time.Now()
	st, err = store.Open(dir, 0)
	if err != nil {
		ps.fail("store.Open over %d entries: %v", entries, err)
		return
	}
	ps.put("store.open_scan_ms", time.Since(t0).Seconds()*1e3, "ms")

	gets := make([]float64, entries)
	for i := range gets {
		t0 := time.Now()
		got, _, ok := st.Get(key(i))
		gets[i] = time.Since(t0).Seconds() * 1e6
		if !ok || len(got) != len(body) {
			ps.fail("store.Get: entry %d missing or short", i)
			return
		}
	}
	ps.putN("store.get_p50_us", median(gets), "us", entries)
}

// ---- service ----

func (ps *probeSet) serviceProbes() {
	// Three families (nine jobs), enough replays for a p99.
	w := &serviceWL{families: 3, replaysA: 120, replaysB: 2, p: ps.p}
	u := w.unit(0, nil, 0)
	for _, n := range u.notes {
		ps.fail("service probe: %s", n)
	}
	ps.serviceMetrics(u.service)
}

func (ps *probeSet) serviceMetrics(sp *servicePass) {
	us := func(ds []time.Duration) []float64 { return scaled(seconds(ds), 1e6) }
	ps.putN("service.job_cold_p50_ms", median(seconds(sp.Cold))*1e3, "ms", len(sp.Cold))
	ps.putN("service.submit_miss_p50_us", median(us(sp.SubmitMiss)), "us", len(sp.SubmitMiss))
	ps.putN("service.status_get_p50_us", median(us(sp.StatusGet)), "us", len(sp.StatusGet))
	ps.putN("service.result_bytes_p50", median(sp.ResultBytes), "bytes", len(sp.ResultBytes))
	ps.putN("service.metrics_scrape_us", median(us(sp.Scrape)), "us", len(sp.Scrape))
	ps.putN("service.replay_mem_p50_us", median(us(sp.ReplayMem)), "us", len(sp.ReplayMem))
	ps.putN("service.replay_mem_p99_us", percentile(us(sp.ReplayMem), 99), "us", len(sp.ReplayMem))
	ps.putN("service.replay_store_p50_us", median(us(sp.ReplayStore)), "us", len(sp.ReplayStore))
	ps.put("service.restart_ms", sp.Restart.Seconds()*1e3, "ms")
	ps.put("service.cache_hits", float64(sp.Counters["coherenced_jobs_cache_hits_total"]), "count")
	ps.put("service.store_hits", float64(sp.Counters["coherenced_store_hits_total"]), "count")
	ps.put("service.dedup", float64(sp.Counters["coherenced_jobs_deduplicated_total"]), "count")
	ps.put("service.rejected", float64(sp.Counters["coherenced_jobs_rejected_total"]), "count")
}

// ---- mc ----

func (ps *probeSet) mcProbe() {
	// The default matrix of cmd/coherencemc: three protocols, 2 and 3
	// processors, 1 and 2 blocks, depth 2 at two processors and 1 beyond.
	states := 0
	t0 := time.Now()
	for _, pr := range []proto.Protocol{proto.WI, proto.PU, proto.CU} {
		for _, procs := range []int{2, 3} {
			for _, blocks := range []int{1, 2} {
				cfg := mc.DefaultConfig(pr)
				cfg.Procs, cfg.Blocks = procs, blocks
				if procs > 2 {
					cfg.OpsPerProc = 1
				}
				res, err := mc.Explore(cfg)
				if err != nil {
					ps.fail("mc.Explore %v/p%d/b%d: %v", pr, procs, blocks, err)
					return
				}
				if len(res.Violations) > 0 {
					ps.fail("mc.Explore %v/p%d/b%d: %s", pr, procs, blocks, res.Violations[0].Detail)
				}
				states += res.States
			}
		}
	}
	ps.put("mc.states_per_s", float64(states)/time.Since(t0).Seconds(), "1/s")
	ps.put("mc.states", float64(states), "count")
	if states != expected.McStates {
		ps.fail("mc: %d states over the default matrix, want %d (mc_baseline.json total)", states, expected.McStates)
	}
}
