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
//	coherencesim -run lock -timeline-out timeline.json   # Perfetto
//	coherencesim -run lock -trace 2000 -trace-out ops.log
//	coherencesim -experiment all -quick -cpuprofile cpu.pprof
//
// Metrics are keyed to simulated time, so -metrics-out documents are
// byte-identical at any -parallel worker count; wall time goes to
// stderr with -progress.
package main

import (
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
	"coherencesim/internal/metrics"
	"coherencesim/internal/proto"
	"coherencesim/internal/runner"
	"coherencesim/internal/sim"
	"coherencesim/internal/stats"
	"coherencesim/internal/trace"
	"coherencesim/internal/workload"
)

// obsOptions carries the CLI's observability settings into the run paths.
type obsOptions struct {
	metricsOut   string   // JSON metrics report destination
	metricsCSV   string   // CSV time-series destination
	interval     sim.Time // sampling interval (simulated cycles)
	timelineOut  string   // Chrome trace-event / Perfetto destination (-run only)
	traceN       int      // operation-trace ring capacity (-run only)
	traceOut     string   // operation-trace dump destination (default stderr)
	breakdown    bool     // print the stall-attribution breakdown table
	breakdownOut string   // JSON breakdown report destination
	traceTxnOut  string   // flow-linked transaction timeline destination (-run only)
}

// metricsEnabled reports whether any metrics export was requested.
func (ob obsOptions) metricsEnabled() bool {
	return ob.metricsOut != "" || ob.metricsCSV != ""
}

// breakdownEnabled reports whether a transaction tracer must be attached.
func (ob obsOptions) breakdownEnabled() bool {
	return ob.breakdown || ob.breakdownOut != "" || ob.traceTxnOut != ""
}

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is main without the exit: it parses args, validates them, runs and
// returns the exit status (0 done, 1 failed, 2 bad usage). Diagnostics go
// to stderr, one "coherencesim: ..." line per error.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("coherencesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment = fs.String("experiment", "", "figure to regenerate: fig8..fig16, lockvariants, redvariants, extlocks, contention, apps, ablations, all (see -list)")
		list       = fs.Bool("list", false, "print every experiment name with a one-line description and exit")
		version    = fs.Bool("version", false, "print version information and exit")
		quick      = fs.Bool("quick", false, "reduced iteration counts (~20x faster, same shapes)")
		format     = fs.String("format", "table", "output format for fig8/fig11/fig14 and traffic figures: table or csv")
		parallel   = fs.Int("parallel", 0, "simulation worker pool size: 0 = NumCPU, 1 = pure serial")
		warmfork   = fs.Bool("warmfork", false, "run each sweep point as warm-up and measured rest on one machine and simulate identical points once per invocation (deterministic, but figures differ slightly from the single-phase defaults)")
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
		traceTxnOut     = fs.String("trace-txn", "", "write a flow-linked Chrome trace-event / Perfetto timeline of coherence transactions and the stalls they release to this file (-run mode)")
		timelineOut     = fs.String("timeline-out", "", "write a Chrome trace-event / Perfetto timeline of per-processor states to this file (-run mode)")
		traceN          = fs.Int("trace", 0, "record the last N processor operations in a ring buffer and dump them after the run (-run mode)")
		traceOut        = fs.String("trace-out", "", "file for the -trace dump (default stderr)")
		cpuprofile      = fs.String("cpuprofile", "", "write a pprof CPU profile of the simulator itself to this file")
		memprofile      = fs.String("memprofile", "", "write a pprof heap profile taken after the run to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	if *version {
		fmt.Println(buildinfo.String("coherencesim"))
		return 0
	}
	if *list {
		printExperimentList(os.Stdout)
		return 0
	}
	if err := checkFlags(fs, *runKind, *procs, *iters); err != nil {
		fmt.Fprintln(stderr, "coherencesim:", err)
		return 1
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(stderr, "coherencesim:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, "coherencesim:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(stderr, "coherencesim:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the stable live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(stderr, "coherencesim:", err)
			}
		}()
	}

	ob := obsOptions{
		metricsOut:  *metricsOut,
		metricsCSV:  *metricsCSV,
		interval:    sim.Time(*metricsInterval),
		timelineOut: *timelineOut,
		traceN:      *traceN,
		traceOut:    *traceOut,

		breakdown:    *breakdown,
		breakdownOut: *breakdownOut,
		traceTxnOut:  *traceTxnOut,
	}
	if ob.metricsEnabled() && ob.interval == 0 {
		fmt.Fprintln(stderr, "coherencesim: -metrics-interval must be positive")
		return 1
	}

	switch {
	case *runKind != "":
		if err := singleRun(*runKind, *lockKind, *barKind, *redKind, *protoName, *procs, *iters, ob); err != nil {
			fmt.Fprintln(stderr, "coherencesim:", err)
			return 1
		}
	case *experiment != "":
		o := experiments.Defaults()
		if *quick {
			o = experiments.Quick()
		}
		// Fan each figure's independent simulations across the pool.
		// Result assembly is deterministic, so stdout is byte-identical
		// to -parallel 1; all progress reporting goes to stderr.
		o.Runner = runner.New(*parallel)
		var timings io.Writer
		if *progress {
			o.Runner.SetProgress(runner.Printer(stderr))
			timings = stderr
			fmt.Fprintf(stderr, "coherencesim: %d simulation workers\n", o.Runner.Workers())
		}
		if ob.metricsEnabled() {
			o.Metrics = metrics.NewCollector(ob.interval)
		}
		if ob.breakdown || ob.breakdownOut != "" {
			o.Breakdown = trace.NewBreakdownCollector()
		}
		if *warmfork {
			o.Forks = experiments.NewWarmForkCache()
		}
		var err error
		if *format == "csv" {
			err = runExperimentsCSV(*experiment, o)
		} else {
			err = runExperiments(*experiment, o, timings)
		}
		if err == nil && o.Metrics != nil {
			err = writeReport(o.Metrics.Report(), ob)
		}
		if err == nil {
			err = writeExperimentBreakdown(o, ob)
		}
		if err != nil {
			fmt.Fprintln(stderr, "coherencesim:", err)
			return 1
		}
	default:
		fs.Usage()
		return 2
	}
	return 0
}

// checkFlags rejects the values the run paths would panic on, divide by
// zero with, or silently ignore.
func checkFlags(fs *flag.FlagSet, runKind string, procs, iters int) (err error) {
	switch {
	case procs < 1 || procs > 64:
		return fmt.Errorf("procs %d out of range 1..64", procs)
	case iters < 0:
		return fmt.Errorf("iterations %d is negative", iters)
	case runKind == "lock" && iters > 0 && iters < procs:
		return fmt.Errorf("iterations %d is fewer than one acquire per processor (procs %d)", iters, procs)
	case runKind != "":
		return nil
	}
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "timeline-out", "trace-txn", "trace", "trace-out":
			if err == nil {
				err = fmt.Errorf("-%s applies to -run mode only", f.Name)
			}
		}
	})
	return err
}

func parseProtocol(s string) (proto.Protocol, error) {
	switch strings.ToUpper(s) {
	case "WI", "I":
		return proto.WI, nil
	case "PU", "U":
		return proto.PU, nil
	case "CU", "C":
		return proto.CU, nil
	}
	return 0, fmt.Errorf("unknown protocol %q (want WI, PU, or CU)", s)
}

// writeExperimentBreakdown prints and/or writes the collected
// stall-attribution breakdowns after an experiment run.
func writeExperimentBreakdown(o experiments.Options, ob obsOptions) error {
	if o.Breakdown == nil {
		return nil
	}
	rep := o.Breakdown.Report()
	if ob.breakdown {
		fmt.Print(rep.Table())
	}
	if ob.breakdownOut != "" {
		return writeBreakdownJSON(rep, ob.breakdownOut)
	}
	return nil
}

// writeBreakdownJSON writes one breakdown report as JSON.
func writeBreakdownJSON(rep *trace.BreakdownReport, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeReport writes the report to the JSON and/or CSV destinations.
func writeReport(rep *metrics.Report, ob obsOptions) error {
	if ob.metricsOut != "" {
		f, err := os.Create(ob.metricsOut)
		if err != nil {
			return err
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if ob.metricsCSV != "" {
		f, err := os.Create(ob.metricsCSV)
		if err != nil {
			return err
		}
		if err := rep.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
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

// unknownExperiment builds the error for a bad -experiment value; its
// message carries the full experiment list so the user never has to go
// hunt for valid names.
func unknownExperiment(name string) error {
	var b strings.Builder
	printExperimentList(&b)
	return fmt.Errorf("unknown experiment %q\n%s", name, strings.TrimRight(b.String(), "\n"))
}

func runExperiments(name string, o experiments.Options, timings io.Writer) error {
	timed := func(e experiments.CatalogEntry) {
		t0 := time.Now()
		for _, tbl := range e.Tables(o) {
			fmt.Println(tbl)
		}
		if timings != nil {
			fmt.Fprintf(timings, "coherencesim: %s done in %.2fs\n", e.Name, time.Since(t0).Seconds())
		}
	}
	if name == "all" {
		for _, e := range experiments.Catalog() {
			fmt.Printf("== %s (%s) ==\n", e.Name, e.Description)
			timed(e)
		}
		return nil
	}
	e, ok := experiments.Lookup(name)
	if !ok {
		return unknownExperiment(name)
	}
	timed(e)
	return nil
}

// instrument applies the observability options to a single run's
// parameters, returning the timeline and trace handles to export after
// the run (nil when the corresponding flag is off).
func instrument(p *workload.Params, ob obsOptions) (*metrics.Timeline, *trace.Log, *trace.Tracer) {
	if ob.metricsEnabled() {
		p.MetricsInterval = ob.interval
	}
	var tl *metrics.Timeline
	var tr *trace.Log
	var txn *trace.Tracer
	if ob.timelineOut != "" {
		tl = metrics.NewTimeline(0)
	}
	if ob.traceN > 0 {
		tr = trace.NewLog(ob.traceN)
	}
	if ob.breakdownEnabled() {
		// The CLI builds the tracer itself (rather than via
		// Params.Breakdown) so it keeps the handle for the flow-linked
		// transaction timeline export.
		txn = trace.NewTracer(p.Procs, 0)
	}
	if tl != nil || tr != nil || txn != nil {
		prev := p.Tune
		p.Tune = func(cfg *machine.Config) {
			cfg.Timeline = tl
			cfg.Trace = tr
			cfg.Txn = txn
			if prev != nil {
				prev(cfg)
			}
		}
	}
	return tl, tr, txn
}

// writeRunOutputs exports a single run's requested observability
// artifacts: the operation-trace dump, the Perfetto timeline (with trace
// events folded in as instants when both are enabled), and the metrics
// report.
func writeRunOutputs(label, protocol string, res machine.Result, tl *metrics.Timeline, tr *trace.Log, txn *trace.Tracer, ob obsOptions) error {
	if tr != nil {
		w := io.Writer(os.Stderr)
		if ob.traceOut != "" {
			f, err := os.Create(ob.traceOut)
			if err != nil {
				return err
			}
			defer f.Close()
			w = f
		}
		fmt.Fprintln(w, tr.Summary())
		if err := tr.Dump(w, -1); err != nil {
			return err
		}
	}
	if tl != nil {
		if tr != nil {
			// Fold the buffered operation trace into the timeline as
			// point events, so Perfetto shows atomics/fences/flushes and
			// spin wake-ups against the stall intervals.
			for _, e := range tr.Events() {
				switch e.Kind {
				case trace.Atomic, trace.Fence, trace.Flush, trace.SpinWake:
					tl.AddInstant(e.Proc, e.Kind.String(), e.Time)
				}
			}
		}
		f, err := os.Create(ob.timelineOut)
		if err != nil {
			return err
		}
		if err := metrics.WriteChromeTrace(f, tl, len(res.PerProc)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if txn != nil {
		if ob.breakdown || ob.breakdownOut != "" {
			coll := trace.NewBreakdownCollector()
			coll.Add(label, res.Breakdown)
			rep := coll.Report()
			rep.Protocol = protocol
			if ob.breakdown {
				fmt.Print(rep.Table())
				fmt.Print(res.Breakdown.ProcTable())
			}
			if ob.breakdownOut != "" {
				if err := writeBreakdownJSON(rep, ob.breakdownOut); err != nil {
					return err
				}
			}
		}
		if ob.traceTxnOut != "" {
			f, err := os.Create(ob.traceTxnOut)
			if err != nil {
				return err
			}
			if err := trace.WriteTxnChromeTrace(f, txn, protocol); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	if ob.metricsEnabled() {
		coll := metrics.NewCollector(ob.interval)
		coll.Add(label, res.Metrics)
		return writeReport(coll.Report(), ob)
	}
	return nil
}

func singleRun(kind, lockKind, barKind, redKind, protoName string, procs, iters int, ob obsOptions) error {
	pr, err := parseProtocol(protoName)
	if err != nil {
		return err
	}
	switch kind {
	case "lock":
		var lk workload.LockKind
		switch strings.ToLower(lockKind) {
		case "tk", "ticket":
			lk = workload.Ticket
		case "mcs":
			lk = workload.MCS
		case "uc", "ucmcs":
			lk = workload.UpdateConsciousMCS
		default:
			return fmt.Errorf("unknown lock %q", lockKind)
		}
		p := workload.DefaultLockParams(pr, procs)
		if iters > 0 {
			p.Iterations = iters
		}
		tl, tr, txn := instrument(&p, ob)
		res := workload.LockLoop(p, lk)
		fmt.Printf("%v lock, %v, P=%d: %d acquires\n", lk, pr, procs, res.Acquires)
		fmt.Printf("  avg acquire-release latency: %.1f cycles\n", res.AvgLatency)
		printTraffic(res.Misses.Total(), res.Updates.Total(), res.Result.Net.Messages)
		fmt.Print(missBar(res))
		return writeRunOutputs(fmt.Sprintf("run/lock/%v-%s/P=%d", lk, pr.Short(), procs),
			pr.String(), res.Result, tl, tr, txn, ob)
	case "barrier":
		var bk workload.BarrierKind
		switch strings.ToLower(barKind) {
		case "cb", "central":
			bk = workload.Central
		case "db", "dissemination":
			bk = workload.Dissemination
		case "tb", "tree":
			bk = workload.Tree
		default:
			return fmt.Errorf("unknown barrier %q", barKind)
		}
		p := workload.DefaultBarrierParams(pr, procs)
		if iters > 0 {
			p.Iterations = iters
		}
		tl, tr, txn := instrument(&p, ob)
		res := workload.BarrierLoop(p, bk)
		fmt.Printf("%v barrier, %v, P=%d: %d episodes\n", bk, pr, procs, res.Episodes)
		fmt.Printf("  avg episode latency: %.1f cycles\n", res.AvgLatency)
		printTraffic(res.Misses.Total(), res.Updates.Total(), res.Net.Messages)
		return writeRunOutputs(fmt.Sprintf("run/barrier/%v-%s/P=%d", bk, pr.Short(), procs),
			pr.String(), res.Result, tl, tr, txn, ob)
	case "reduction":
		var rk workload.ReductionKind
		switch strings.ToLower(redKind) {
		case "sr", "sequential":
			rk = workload.Sequential
		case "pr", "parallel":
			rk = workload.Parallel
		default:
			return fmt.Errorf("unknown reduction %q", redKind)
		}
		p := workload.DefaultReductionParams(pr, procs)
		if iters > 0 {
			p.Iterations = iters
		}
		tl, tr, txn := instrument(&p, ob)
		res := workload.ReductionLoop(p, rk)
		fmt.Printf("%v reduction, %v, P=%d: %d reductions\n", rk, pr, procs, res.Reductions)
		fmt.Printf("  avg reduction latency: %.1f cycles\n", res.AvgLatency)
		printTraffic(res.Misses.Total(), res.Updates.Total(), res.Net.Messages)
		return writeRunOutputs(fmt.Sprintf("run/reduction/%v-%s/P=%d", rk, pr.Short(), procs),
			pr.String(), res.Result, tl, tr, txn, ob)
	default:
		return fmt.Errorf("unknown run kind %q (want lock, barrier, or reduction)", kind)
	}
}

func printTraffic(misses, updates, messages uint64) {
	fmt.Printf("  miss/upgrade transactions: %s   update messages: %s   network messages: %s\n",
		stats.FormatCount(misses), stats.FormatCount(updates), stats.FormatCount(messages))
}

func missBar(res workload.LockResult) string {
	m := res.Misses
	labels := []string{"cold", "true", "false", "evict", "drop", "excl"}
	vals := make([]float64, len(labels))
	for i := 0; i < len(labels); i++ {
		vals[i] = float64(m[i])
	}
	return stats.Bars("  miss categories:", labels, vals, 40)
}

// runExperimentsCSV prints plotting-friendly CSV for the figure
// experiments that have a CSV form.
func runExperimentsCSV(name string, o experiments.Options) error {
	e, ok := experiments.Lookup(name)
	if !ok {
		return unknownExperiment(name)
	}
	if !e.HasCSV() {
		return fmt.Errorf("experiment %q has no CSV form", name)
	}
	fmt.Print(e.CSV(o))
	return nil
}
