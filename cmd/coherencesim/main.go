// Command coherencesim regenerates the experiments of Bianchini, Carrera
// & Kontothanassis, "The Interaction of Parallel Programming Constructs
// and Coherence Protocols" (PPoPP 1997) on the built-in machine
// simulator.
//
// Usage:
//
//	coherencesim -experiment fig8            # one figure at paper scale
//	coherencesim -experiment all -quick      # everything, reduced scale
//	coherencesim -experiment lockvariants
//	coherencesim -experiment ablations
//	coherencesim -run lock -lock MCS -protocol CU -procs 32
//
// The -run mode executes a single (construct, protocol, size)
// combination and prints its full metrics.
//
// Observability:
//
//	coherencesim -experiment fig8 -quick -metrics-out m.json
//	coherencesim -experiment fig8 -quick -metrics-csv series.csv
//	coherencesim -run lock -timeline-out tl.json -trace 2000   # Perfetto
//	coherencesim -run lock -trace 2000 -trace-out ops.log
//	coherencesim -experiment all -quick -cpuprofile cpu.pprof
//
// The Perfetto timeline holds every processor stall, the coherence
// transactions that released them and, with -trace, the traced
// atomics, fences, flushes and spin wake-ups.
//
// Metrics are keyed to simulated time, so -metrics-out documents are
// byte-identical at any -parallel worker count; wall time goes to
// stderr with -progress.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"coherencesim/internal/buildinfo"
	"coherencesim/internal/experiments"
	"coherencesim/internal/machine"
	"coherencesim/internal/runner"
	"coherencesim/internal/service"
	"coherencesim/internal/stats"
	"coherencesim/internal/trace"
)

// outputs is where the reports a job produces go, beyond the rendered
// tables on stdout.
type outputs struct {
	metricsOut   string // JSON metrics report destination
	metricsCSV   string // CSV time-series destination
	breakdown    bool   // print the stall-attribution breakdown table
	breakdownOut string // JSON breakdown report destination
	timelineOut  string // Chrome trace-event / Perfetto destination (-run only)
	traceN       int    // operation-trace ring capacity (-run only)
	traceOut     string // operation-trace dump destination (default stderr)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the exit: it turns args into a service.JobSpec,
// canonicalizes it (the one validator), executes it on the executor the
// daemon and the fleet use, and returns the exit status (0 done, 1
// failed, 2 bad usage). Results go to stdout, diagnostics to stderr, one
// "coherencesim: ..." line per error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("coherencesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "", "figure to regenerate: fig8..fig16, lockvariants, redvariants, extlocks, contention, apps, ablations, all (see -list)")
		list       = fs.Bool("list", false, "print every experiment name with a one-line description and exit")
		version    = fs.Bool("version", false, "print version information and exit")
		quick      = fs.Bool("quick", false, "reduced iteration counts (~20x faster, same shapes)")
		format     = fs.String("format", "table", "output format for fig8/fig11/fig14 and traffic figures: table or csv")
		parallel   = fs.Int("parallel", 0, "simulation worker pool size: 0 = NumCPU, 1 = pure serial")
		progress   = fs.Bool("progress", false, "report per-job progress (with ETA and sim-cycle throughput) and per-figure wall time on stderr")
		runKind    = fs.String("run", "", "single run: lock, barrier, or reduction")
		lockKind   = fs.String("lock", "tk", "lock for -run lock: tk, mcs, ucmcs")
		barKind    = fs.String("barrier", "db", "barrier for -run barrier: cb, db, tb")
		redKind    = fs.String("reduction", "sr", "reduction for -run reduction: sr, pr")
		protoName  = fs.String("protocol", "WI", "protocol: WI, PU, CU")
		procs      = fs.Int("procs", 32, "processor count (1-64)")
		iters      = fs.Int("iterations", 0, "override iteration count (0 = paper default)")

		metricsOut      = fs.String("metrics-out", "", "write a deterministic JSON metrics report (counters, latency histograms, stall time series) to this file")
		metricsCSV      = fs.String("metrics-csv", "", "write the sampled counter time series as CSV (one row per run, frame, counter) to this file")
		metricsInterval = fs.Uint64("metrics-interval", 10000, "metrics sampling interval in simulated cycles")
		breakdown       = fs.Bool("breakdown", false, "print the per-run stall-attribution breakdown (compute, read-miss, write-ownership, invalidation-wait, update-traffic, lock-wait, barrier-wait)")
		breakdownOut    = fs.String("breakdown-out", "", "write the deterministic JSON breakdown report to this file")
		timelineOut     = fs.String("timeline-out", "", "write a Chrome trace-event / Perfetto timeline of every processor stall, the coherence transactions that released them and, with -trace, the traced atomics, fences, flushes and spin wake-ups to this file (-run mode)")
		traceN          = fs.Int("trace", 0, "record the last N processor operations in a ring buffer and dump them after the run (-run mode)")
		traceOut        = fs.String("trace-out", "", "file for the -trace dump (default stderr; needs -trace)")
		cpuprofile      = fs.String("cpuprofile", "", "write a pprof CPU profile of the simulator itself to this file")
		memprofile      = fs.String("memprofile", "", "write a pprof heap profile taken after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "coherencesim:", err)
		return 1
	}

	if *version {
		fmt.Fprintln(stdout, buildinfo.String("coherencesim"))
		return 0
	}
	if *list {
		printExperimentList(stdout)
		return 0
	}
	ob := outputs{
		metricsOut: *metricsOut, metricsCSV: *metricsCSV,
		breakdown: *breakdown, breakdownOut: *breakdownOut,
		timelineOut: *timelineOut, traceN: *traceN, traceOut: *traceOut,
	}
	wantMetrics := ob.metricsOut != "" || ob.metricsCSV != ""
	switch {
	case *runKind == "" && *experiment == "":
		fs.Usage()
		return 2
	case *procs == 0:
		// A spec spells "the default" as 0; typed on the command line it
		// is a mistake.
		return fail(errors.New("procs 0 out of range 1..64"))
	case wantMetrics && *metricsInterval == 0:
		return fail(errors.New("-metrics-interval must be positive"))
	}

	// The flags are one spelling of a service.JobSpec (JSON is the
	// other); Canonicalize keeps the fields that apply to the kind.
	spec := service.JobSpec{
		Kind: "experiment", Experiment: *experiment, Scale: "paper", Format: *format,
		Run: *runKind, Protocol: *protoName, Procs: *procs, Iterations: *iters,
		MetricsInterval: *metricsInterval, Breakdown: ob.breakdown || ob.breakdownOut != "",
	}
	if *quick {
		spec.Scale = "quick"
	}
	if *runKind != "" {
		spec.Kind = "run"
		if algo := map[string]*string{"lock": lockKind, "barrier": barKind, "reduction": redKind}[*runKind]; algo != nil {
			spec.Algo = *algo
		}
	}
	specs, err := canonicalSpecs(fs, spec)
	switch {
	case err != nil:
		return fail(err)
	case ob.traceN < 0:
		return fail(fmt.Errorf("-trace %d is negative", ob.traceN))
	case ob.traceOut != "" && ob.traceN == 0:
		return fail(errors.New("-trace-out needs -trace N"))
	}
	// Canonicalize clears both collector fields of an experiment that
	// feeds no collector; a report flag would then write an empty report.
	if name := uncollected(fs, specs); name != "" {
		fmt.Fprintf(stderr, "coherencesim: -%s: experiment %s records no metrics or breakdown runs\n", name, *experiment)
		return 2
	}
	if !wantMetrics {
		// Nobody reads the report: interval 0 attaches no registry.
		for i := range specs {
			specs[i].MetricsInterval = 0
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			runtime.GC() // materialize the stable live set
			if err := writeFile(*memprofile, pprof.WriteHeapProfile); err != nil {
				fail(err)
			}
		}()
	}

	ctx := context.Background()
	if spec.Kind == "run" {
		err = singleRun(ctx, specs[0], ob, stdout, stderr)
	} else {
		var report func(runner.Snapshot)
		if *progress {
			report = runner.Printer(stderr)
			workers := *parallel
			if workers <= 0 {
				workers = runtime.GOMAXPROCS(0)
			}
			fmt.Fprintf(stderr, "coherencesim: %d simulation workers\n", workers)
		}
		err = runExperiments(ctx, specs, *parallel, report, ob, stdout, stderr)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// modeOnly names the flags only one mode reads, by that mode's spec kind.
var modeOnly = map[string]string{
	"timeline-out": "run", "trace": "run", "trace-out": "run",
	"procs": "run", "protocol": "run", "iterations": "run",
	"lock": "run", "barrier": "run", "reduction": "run",
	"quick": "experiment", "format": "experiment", "parallel": "experiment", "progress": "experiment",
}

// canonicalSpecs validates the job the flags describe and returns its
// canonical specs: one, or for -experiment all one per catalog entry in
// order. A flag set for the other mode is refused here rather than
// silently ignored.
func canonicalSpecs(fs *flag.FlagSet, spec service.JobSpec) (specs []service.JobSpec, err error) {
	fs.Visit(func(f *flag.Flag) {
		if mode := modeOnly[f.Name]; err == nil && mode != "" && mode != spec.Kind {
			err = fmt.Errorf("-%s applies to -%s mode only", f.Name, mode)
		}
	})
	if err != nil {
		return nil, err
	}
	names := []string{spec.Experiment}
	if spec.Kind != "run" {
		if spec.Experiment == "all" {
			names = names[:0]
			for _, e := range experiments.Catalog() {
				names = append(names, e.Name)
			}
		}
	}
	for _, name := range names {
		spec.Experiment = name
		c, err := service.Canonicalize(spec)
		if _, ok := experiments.Lookup(c.Experiment); err != nil && spec.Kind != "run" && !ok {
			// A bad name gets the valid ones, so nobody has to go hunt.
			var list strings.Builder
			printExperimentList(&list)
			err = fmt.Errorf("%v\n%s", err, strings.TrimRight(list.String(), "\n"))
		}
		if err != nil {
			return nil, err
		}
		specs = append(specs, c)
	}
	return specs, nil
}

// uncollected returns the first collector flag set when no spec keeps a
// collector, or "".
func uncollected(fs *flag.FlagSet, specs []service.JobSpec) (name string) {
	for _, c := range specs {
		if c.MetricsInterval != 0 || c.Breakdown {
			return ""
		}
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "metrics-out", "metrics-csv", "breakdown", "breakdown-out":
			if name == "" {
				name = f.Name
			}
		}
	})
	return name
}

// printExperimentList writes the -list output: every catalog entry with
// its one-line description (the same catalog the serving API exposes at
// GET /v1/experiments).
func printExperimentList(w io.Writer) {
	fmt.Fprintln(w, "experiments (-experiment NAME):")
	for _, e := range experiments.Catalog() {
		csv := ""
		if e.HasCSV() {
			csv = "  [csv]"
		}
		fmt.Fprintf(w, "  %-14s %s%s\n", e.Name, e.Description, csv)
	}
	fmt.Fprintln(w, "  all            every experiment above, in order")
}

// runExperiments executes the specs in order and prints each one's
// output, under an "== name ==" header when there are several
// (-experiment all); their metrics and breakdown runs are concatenated
// into one report each, and they share one point memo, so a simulation
// two figures have in common happens once. progress, when non-nil, also
// turns on the per-figure wall-time lines on stderr.
func runExperiments(ctx context.Context, specs []service.JobSpec, workers int, progress func(runner.Snapshot), ob outputs, stdout, stderr io.Writer) error {
	var all *service.JobResult
	execute := service.BatchExecutor()
	for _, spec := range specs {
		if len(specs) > 1 {
			e, _ := experiments.Lookup(spec.Experiment)
			fmt.Fprintf(stdout, "== %s (%s) ==\n", e.Name, e.Description)
		}
		t0 := time.Now()
		res, err := execute(ctx, spec, workers, progress)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, res.Output)
		if progress != nil {
			fmt.Fprintf(stderr, "coherencesim: %s done in %.2fs\n", spec.Experiment, time.Since(t0).Seconds())
		}
		if all == nil {
			all = res
			continue
		}
		all.Metrics.Runs = append(all.Metrics.Runs, res.Metrics.Runs...)
		if all.Breakdown != nil && res.Breakdown != nil { // an uncollected experiment has none
			all.Breakdown.Runs = append(all.Breakdown.Runs, res.Breakdown.Runs...)
		}
	}
	return writeReports(all, ob, stdout)
}

// writeReports prints and/or writes a result's breakdown and metrics
// reports to the destinations the flags named.
func writeReports(res *service.JobResult, ob outputs, stdout io.Writer) error {
	if ob.breakdown {
		fmt.Fprint(stdout, res.Breakdown.Table())
	}
	for _, out := range []struct {
		path  string
		write func(io.Writer) error
	}{
		{ob.breakdownOut, res.Breakdown.WriteJSON},
		{ob.metricsOut, res.Metrics.WriteJSON},
		{ob.metricsCSV, res.Metrics.WriteCSV},
	} {
		if out.path != "" {
			if err := writeFile(out.path, out.write); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeFile creates path, hands it to write and closes it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// singleRun executes a kind=run spec with the run-only instruments
// (operation trace, timeline tracer) attached to its machine, prints the
// summary — for locks with the miss-category bars under it — and
// exports what was asked for.
func singleRun(ctx context.Context, spec service.JobSpec, ob outputs, stdout, stderr io.Writer) error {
	var tr *trace.Log
	var txn *trace.Tracer
	if ob.traceN > 0 {
		tr = trace.NewLog(ob.traceN)
	}
	if ob.timelineOut != "" {
		// Built here rather than by spec.Breakdown so the handle is kept
		// for the timeline, the one reader of stored spans and stalls.
		txn = trace.NewTracer(spec.Procs, 0).StoreRecords()
	}
	tune := func(cfg *machine.Config) {
		cfg.Trace = tr
		if txn != nil {
			cfg.Txn = txn
		}
	}
	res, mres, err := service.ExecuteRun(ctx, spec, func(pt experiments.Point) (experiments.PointResult, error) {
		return pt.Simulate(tune)
	})
	if err != nil {
		return err
	}
	if res.Breakdown != nil {
		res.Breakdown.Protocol = spec.Protocol // one machine, so the envelope can say
	}
	fmt.Fprint(stdout, res.Output)
	if spec.Run == "lock" {
		labels := []string{"cold", "true", "false", "evict", "drop", "excl"}
		vals := make([]float64, len(labels))
		for i := range vals {
			vals[i] = float64(mres.Misses[i])
		}
		fmt.Fprint(stdout, stats.Bars("  miss categories:", labels, vals, 40))
	}

	if tr != nil {
		dump := func(w io.Writer) error {
			fmt.Fprintln(w, tr.Summary())
			return tr.Dump(w, -1)
		}
		if ob.traceOut == "" {
			err = dump(stderr)
		} else {
			err = writeFile(ob.traceOut, dump)
		}
		if err != nil {
			return err
		}
	}
	if txn != nil {
		err := writeFile(ob.timelineOut, func(w io.Writer) error {
			return trace.WriteTimeline(w, txn, tr, spec.Protocol)
		})
		if err != nil {
			return err
		}
	}
	if err := writeReports(res, ob, stdout); err != nil {
		return err
	}
	if ob.breakdown {
		fmt.Fprint(stdout, mres.Breakdown.ProcTable())
	}
	return nil
}
