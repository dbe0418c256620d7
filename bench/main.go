// Command bench is the repository's one benchmark: five workloads over
// the whole stack (event core to serving plane), end-to-end metrics from
// an untraced run, per-layer metrics and spans from a traced one, and
// exact-output checks on everything it runs. See README.md.
//
//	bash bench/run.sh                     every workload, untraced
//	bash bench/run.sh -traced             ... and the per-layer pass
//	bash bench/run.sh -selfcheck          untraced twice, compared to the bounds
//	bash bench/run.sh --workload fleet_stream --seed 7 --seconds 12 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	defaultSeconds = 12 // run_seconds in BENCHMARK.json
	setupRuns      = 5  // set-ups per run; setup_s is their median
	buildDir       = ".bench_build"
)

// report is one run of one workload, as written to the results file.
type report struct {
	Workload  string                  `json:"workload"`
	Seed      int64                   `json:"seed"`
	Seconds   int                     `json:"seconds"`
	Traced    bool                    `json:"traced"`
	Host      hostFacts               `json:"host"`
	ElapsedS  float64                 `json:"elapsed_s"`
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   []metric                `json:"metrics"`
	Timings   map[string]timing       `json:"timings,omitempty"`
	Units     []unitTrace             `json:"units,omitempty"`       // every timed unit, in run order
	RefRuns   []refTrace              `json:"ref_samples,omitempty"` // every reference sample, in run order
	Observed  map[string]expectedUnit `json:"observed"`
	SelfTimeS map[string]float64      `json:"self_time_s,omitempty"`
	SpanFile  string                  `json:"span_file,omitempty"`
	Notes     []string                `json:"notes,omitempty"`
}

func (r *report) put(name string, v float64, unit string) {
	r.Metrics = append(r.Metrics, metric{Name: name, Value: v, Unit: unit})
}

// absorb folds one checked unit into the report.
func (r *report) absorb(u unitResult) {
	r.Attempted += u.attempted
	r.Failed += u.failed
	r.Notes = append(r.Notes, u.notes...)
	obs := r.Observed[u.key]
	obs.Digest, obs.SimCycles = u.digest, u.simCycles
	if u.simEvents != 0 {
		obs.SimEvents = u.simEvents
	}
	r.Observed[u.key] = obs
}

// unitTrace and refTrace are the raw material of the end-to-end numbers:
// when each timed unit and each reference sample ran (seconds since the
// process started measuring) and how long it took.
type unitTrace struct {
	FromS     float64 `json:"from_s"`
	ToS       float64 `json:"to_s"`
	WallS     float64 `json:"wall_s"` // raw; reference samples inside the unit left out
	SimCycles uint64  `json:"sim_cycles"`
}

type refTrace struct {
	AtS float64 `json:"at_s"`
	DS  float64 `json:"d_s"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workloadFlag = flag.String("workload", "", "run one workload in this process (default: all five, each in a child process)")
		seed         = flag.Int64("seed", 1, "seed the workload inputs are generated from")
		secs         = flag.Int("seconds", defaultSeconds, "how long the timed part of a run measures")
		trace        = flag.Int("trace", 0, "1 = traced run: per-layer metrics and spans instead of end-to-end metrics")
		traced       = flag.Bool("traced", false, "all workloads: add the traced pass after the untraced one")
		selfcheck    = flag.Bool("selfcheck", false, "all workloads: run the untraced pass twice and compare against the bounds")
		out          = flag.String("out", "", "results file (default "+buildDir+"/results.json when running all workloads)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *secs < 1 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments; see -h")
		os.Exit(2)
	}
	if *workloadFlag == "" {
		os.Exit(runAll(*seed, *secs, *traced, *selfcheck, *out))
	}
	rep, err := runOne(*workloadFlag, *seed, *secs, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
	}
	printReport(os.Stdout, rep)
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: map[string]metricValue{}}
	for _, m := range rep.Metrics {
		line.Metrics[m.Name] = metricValue{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil { // a NaN or Inf metric: the run measured nothing usable
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	fmt.Println(string(b))
	if !rep.Correct {
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runOne sets one workload up, measures it and returns the report.
func runOne(name string, seed int64, secs int, traced bool) (*report, error) {
	begin := time.Now()
	host, err := sizeHost()
	if err != nil {
		return nil, err
	}
	w, ok := newWorkload(name)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	rep := &report{
		Workload: name, Seed: seed, Seconds: secs, Traced: traced, Host: host,
		Timings: map[string]timing{}, Observed: map[string]expectedUnit{},
	}
	speed := &speedometer{p: host.P}
	if !traced {
		w.observe(speed)
	}
	var setups, rawSetups []float64
	setup := func() error {
		speed.sampleIfDue(0)
		t0 := time.Now()
		if err := w.setup(seed, host.P); err != nil {
			return fmt.Errorf("%s: set-up: %w", name, err)
		}
		t1 := time.Now()
		speed.sample()
		rawSetups = append(rawSetups, t1.Sub(t0).Seconds())
		setups = append(setups, t1.Sub(t0).Seconds()/speed.slowdown(t0, t1))
		return nil
	}
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			w.teardown()
		}
		if err := setup(); err != nil {
			return nil, err
		}
	}
	defer w.teardown()

	if traced {
		if err := tracedRun(rep, w, setup, speed, time.Duration(secs)*time.Second); err != nil {
			return nil, err
		}
	} else {
		untracedRun(rep, w, speed, time.Duration(secs)*time.Second)
		rep.Metrics = append([]metric{{Name: "setup_s", Value: median(setups), Unit: "s", N: len(setups)}}, rep.Metrics...)
		rep.Timings["raw_setup_s"] = summarize(rawSetups)
	}
	want := endToEnd
	if traced {
		want = perLayer
	}
	for _, name := range missing(want, rep.Metrics) {
		rep.Notes = append(rep.Notes, "metric "+name+" was not measured")
	}
	rep.Correct = rep.Failed == 0 && len(rep.Notes) == 0
	rep.ElapsedS = time.Since(begin).Seconds()
	return rep, nil
}

// untracedRun is the timed part: whole cycles of units until the time is
// up, every unit checked, a reference sample between units. Each unit's
// time is divided by the host slowdown measured around it (reference
// seconds, see refkernel.go); every end-to-end figure is the median over
// units, which the fleet's occasional seconds-long stall or a burst of
// host noise does not move. Raw host seconds go into the timings.
func untracedRun(rep *report, w benchWorkload, speed *speedometer, limit time.Duration) {
	type timed struct {
		u        unitResult
		from, to time.Time
	}
	var units []timed
	var figures []float64
	var svc servicePass
	var cycles uint64
	start := time.Now()
	for i := 0; time.Since(start) < limit; {
		for k := 0; k < w.cycle(); k, i = k+1, i+1 {
			t0 := time.Now()
			u := w.unit(i, nil, 0)
			units = append(units, timed{u, t0, time.Now()})
			speed.sampleIfDue(speedGap)
			check(&u)
			rep.absorb(u)
			cycles += u.simCycles
			figures = append(figures, seconds(u.figures)...)
			if s := u.service; s != nil {
				svc.Cold = append(svc.Cold, s.Cold...)
				svc.ReplayMem = append(svc.ReplayMem, s.ReplayMem...)
				svc.ReplayStore = append(svc.ReplayStore, s.ReplayStore...)
			}
		}
	}
	// Rounds of a stream differ in length by design; scaling each unit to
	// the mean simulated work of a unit makes them one population.
	meanCycles := float64(cycles) / float64(len(units))
	var wall, rate, opRate, raw, slowdowns []float64
	for _, t := range units {
		slow := speed.slowdown(t.from, t.to)
		ref := t.u.wall.Seconds() / slow
		slowdowns = append(slowdowns, slow)
		raw = append(raw, t.u.wall.Seconds())
		wall = append(wall, ref*meanCycles/float64(t.u.simCycles))
		rate = append(rate, float64(t.u.simCycles)/ref)
		if t.u.opTime > 0 {
			opRate = append(opRate, float64(t.u.ops)/(t.u.opTime.Seconds()/slow))
		}
	}
	rep.Metrics = append(rep.Metrics,
		metric{Name: "wall_s", Value: median(wall), Unit: "s", N: len(units)},
		metric{Name: "sim_cycles_per_s", Value: median(rate), Unit: "1/s", N: len(units)},
		metric{Name: "ops_per_s", Value: median(opRate), Unit: "1/s", N: len(units)},
		metric{Name: "peak_rss_mb", Value: peakRSSMiB(), Unit: "MiB"},
	)
	rep.Timings["wall_s"] = summarize(wall)
	rep.Timings["raw_unit_s"] = summarize(raw)
	rep.Timings["host_slowdown"] = summarize(slowdowns)
	for _, t := range units {
		rep.Units = append(rep.Units, unitTrace{t.from.Sub(start).Seconds(), t.to.Sub(start).Seconds(), t.u.wall.Seconds(), t.u.simCycles})
	}
	for _, sm := range speed.samples {
		rep.RefRuns = append(rep.RefRuns, refTrace{sm.at.Sub(start).Seconds(), sm.d.Seconds()})
	}
	if len(figures) > 0 {
		rep.Timings["raw_figure_s"] = summarize(figures)
	}
	if len(svc.Cold) > 0 {
		rep.Timings["raw_job_cold_ms"] = summarize(scaled(seconds(svc.Cold), 1e3))
		rep.Timings["raw_replay_mem_us"] = summarize(scaled(seconds(svc.ReplayMem), 1e6))
		rep.Timings["raw_replay_store_us"] = summarize(scaled(seconds(svc.ReplayStore), 1e6))
	}
}

// tracedUnits is how much of a workload the traced pass repeats: one
// rep or pass, or a third of a stream cycle.
func tracedUnits(w benchWorkload) int {
	if w.cycle() > 1 {
		return w.cycle() / 3
	}
	return 1
}

// tracedRun runs the same units untraced and then traced (a fresh set-up
// before each, so neither inherits the other's warm checkpoints), then
// the per-layer probes, and writes the spans.
func tracedRun(rep *report, w benchWorkload, setup func() error, speed *speedometer, limit time.Duration) error {
	n := tracedUnits(w)
	var plain, tracedWall time.Duration
	p0 := time.Now()
	for i := 0; i < n; i++ {
		u := w.unit(i, nil, 0)
		speed.sampleIfDue(speedGap)
		check(&u)
		rep.absorb(u)
		plain += u.wall
	}
	p1 := time.Now()
	w.teardown()
	if err := setup(); err != nil {
		return err
	}
	rec := newRecorder()
	root := rec.begin("workload", rep.Workload, 0, 0)
	var events uint64
	t0 := time.Now()
	for i := 0; i < n; i++ {
		id := rec.begin("unit", fmt.Sprintf("unit %d", i), root, 0)
		u := w.unit(i, rec, id)
		rec.end(id)
		speed.sampleIfDue(speedGap)
		check(&u)
		rep.absorb(u)
		tracedWall += u.wall
		events += u.simEvents
	}
	rec.end(root)
	t1 := time.Now()
	speed.sampleIfDue(0)
	rss := peakRSSMiB() // the workload's own, before the probes allocate

	// A probe's budget scales with the run length: 0.1 s at the default.
	ps := runProbes(limit/120, rep.Host.P)
	rep.Metrics = ps.metrics
	rep.Notes = append(rep.Notes, ps.errs...)
	var cuNs float64
	for _, m := range ps.metrics {
		if m.Name == "machine.run_cu_ns_per_event" {
			cuNs = m.Value
		}
	}
	// The ledger: simulated events per host second the workload reached
	// (events its point results reported, over the untraced time of the
	// same units), against P cores each running the bare machine loop.
	eps := float64(events) / plain.Seconds()
	rep.put("ledger.events_per_s", eps, "1/s")
	rep.put("ledger.stack_eff", eps/(float64(rep.Host.P)*1e9/cuNs), "ratio")
	// The two passes run seconds apart on a drifting host, so they are
	// compared in reference seconds.
	overhead := (tracedWall.Seconds() / speed.slowdown(t0, t1)) / (plain.Seconds() / speed.slowdown(p0, p1))
	rep.put("bench.trace_overhead_frac", overhead-1, "frac")
	rep.put("bench.peak_rss_mb", rss, "MiB")

	spans := rec.snapshot()
	rep.SelfTimeS = map[string]float64{}
	for kind, d := range selfByKind(spans) {
		rep.SelfTimeS[kind] = d.Seconds()
	}
	rep.SpanFile = filepath.Join(buildDir, "spans-"+rep.Workload+".json")
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(rep.SpanFile)
	if err != nil {
		return err
	}
	if err := writeChrome(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printReport(w io.Writer, r *report) {
	kind := "untraced"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "workload %s (%s) seed %d: nproc %d, P %d, %s, cpu %q, commit %s\n",
		r.Workload, kind, r.Seed, r.Host.NProc, r.Host.P, r.Host.Go, r.Host.CPUModel, r.Host.Commit)
	for _, m := range r.Metrics {
		n := ""
		if m.N > 0 {
			n = fmt.Sprintf("  n=%d", m.N)
		}
		fmt.Fprintf(w, "  %-40s %16.6g %-6s%s\n", m.Name, m.Value, m.Unit, n)
	}
	for _, name := range sortedKeys(r.Timings) {
		fmt.Fprintf(w, "  timing %-33s %s\n", name, r.Timings[name])
	}
	for _, kind := range sortedKeys(r.SelfTimeS) {
		fmt.Fprintf(w, "  self time %-30s %16.6g s\n", kind, r.SelfTimeS[kind])
	}
	for _, key := range sortedKeys(r.Observed) {
		o := r.Observed[key]
		fmt.Fprintf(w, "  exact %-14s sim_cycles=%d sim_events=%d digest=%s\n", key, o.SimCycles, o.SimEvents, o.Digest)
	}
	if r.SpanFile != "" {
		fmt.Fprintf(w, "  spans written to %s\n", r.SpanFile)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  FAILED: %s\n", n)
	}
	fmt.Fprintf(w, "  attempted %d, failed %d, correct %v, elapsed %.1f s\n", r.Attempted, r.Failed, r.Correct, r.ElapsedS)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ---- all workloads, each in a child process ----

// runAll runs every workload in its own child process (so set-up time
// and peak memory are the workload's own) and writes one results file.
func runAll(seed int64, secs int, traced, selfcheck bool, out string) int {
	begin := time.Now()
	if _, err := sizeHost(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if out == "" {
		out = filepath.Join(buildDir, "results.json")
	}
	passes := []int{0}
	if selfcheck {
		passes = []int{0, 0}
	}
	if traced {
		passes = append(passes, 1)
	}
	var reports []*report
	ok := true
	for _, trace := range passes {
		for _, name := range workloadNames {
			rep, err := runChild(name, seed, secs, trace)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
				ok = false
				continue
			}
			ok = ok && rep.Correct
			reports = append(reports, rep)
		}
	}
	if selfcheck && !compareRuns(os.Stdout, reports) {
		ok = false
	}
	elapsed := time.Since(begin).Seconds()
	if err := writeJSON(out, map[string]any{"elapsed_s": elapsed, "runs": reports}); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Printf("results written to %s; total elapsed %.1f s\n", out, elapsed)
	if !ok {
		return 1
	}
	return 0
}

// runChild runs one workload in a child process, relays what it prints
// and returns the report it wrote.
func runChild(name string, seed int64, secs, trace int) (*report, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp := filepath.Join(buildDir, fmt.Sprintf("report-%s-%d.json", name, os.Getpid()))
	defer os.Remove(tmp)
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(secs), "-trace", strconv.Itoa(trace), "-out", tmp)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "{") { // the machine-readable last line
			fmt.Println(line)
		}
	}
	runErr := cmd.Wait()
	raw, err := os.ReadFile(tmp)
	if err != nil {
		return nil, fmt.Errorf("no report (%v): %w", runErr, err)
	}
	rep := new(report)
	if err := json.Unmarshal(raw, rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// compareRuns is -selfcheck: for each workload and end-to-end metric it
// prints both untraced values, their relative difference and the bound,
// and reports whether every pair agrees within its bound.
func compareRuns(w io.Writer, reports []*report) bool {
	first := map[string]*report{}
	ok := true
	fmt.Fprintln(w, "selfcheck: two untraced runs of the same code")
	for _, r := range reports {
		if r.Traced {
			continue
		}
		a, seen := first[r.Workload]
		if !seen {
			first[r.Workload] = r
			continue
		}
		for _, def := range endToEnd {
			va, vb := metricOf(a, def.Name), metricOf(r, def.Name)
			diff := math.Abs(vb-va) / math.Abs(va)
			verdict := "ok"
			if !(diff <= def.Bound) {
				verdict, ok = "BEYOND BOUND", false
			}
			fmt.Fprintf(w, "  %-18s %-18s %14.6g %14.6g %-6s diff %5.1f%%  bound %4.0f%%  %s\n",
				r.Workload, def.Name, va, vb, def.Unit, diff*100, def.Bound*100, verdict)
		}
		for key, o := range a.Observed {
			if o != r.Observed[key] {
				fmt.Fprintf(w, "  %-18s exact counts of %s differ between the runs\n", r.Workload, key)
				ok = false
			}
		}
	}
	return ok
}

func metricOf(r *report, name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}
