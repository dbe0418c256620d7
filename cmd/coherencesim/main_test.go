package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coherencesim/internal/experiments"
	"coherencesim/internal/metrics"
	"coherencesim/internal/service"
)

// cli drives run in-process and returns its exit status, stdout and
// stderr.
func cli(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// mustCLI is cli for invocations that have to succeed quietly.
func mustCLI(t *testing.T, args ...string) string {
	t.Helper()
	code, stdout, stderr := cli(args...)
	if code != 0 || stderr != "" {
		t.Fatalf("%v: exit %d, stderr %q", args, code, stderr)
	}
	return stdout
}

func TestRunExperimentsDispatch(t *testing.T) {
	for _, id := range []string{"fig8", "fig11", "fig14", "redvariants"} {
		if out := mustCLI(t, "-experiment", id, "-quick"); out == "" {
			t.Errorf("%s: no output", id)
		}
	}
	// A bad name is answered with the valid ones.
	if _, _, stderr := cli("-experiment", "nope"); !strings.HasPrefix(stderr, "coherencesim: unknown experiment \"nope\"\nexperiments (-experiment NAME):\n  fig8 ") {
		t.Errorf("-experiment nope: stderr %q", stderr)
	}
	if _, _, stderr := cli("-experiment", "fig11", "-quick", "-parallel", "3", "-progress"); !strings.HasPrefix(stderr, "coherencesim: 3 simulation workers\nrunner: 1/") {
		t.Errorf("-progress: stderr starts %.80q", stderr)
	}
	for _, args := range [][]string{
		{"-experiment", "nope"},
		{"-experiment", "redvariants", "-format", "csv"},
		{"-experiment", "all", "-format", "csv"}, // refused before the first figure runs
	} {
		if code, stdout, stderr := cli(args...); code != 1 || stdout != "" || !strings.HasPrefix(stderr, "coherencesim: ") {
			t.Errorf("%v: exit %d, stdout %q, stderr %q", args, code, stdout, stderr)
		}
	}
}

// TestSingleRunDispatch pins the stdout of one -run per algorithm,
// each under a header naming its arguments, to a golden.
func TestSingleRunDispatch(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "single_runs_p4.golden"))
	if err != nil {
		t.Fatal(err)
	}
	size := []string{"-procs", "4", "-iterations", "40"}
	var got strings.Builder
	for _, c := range [][]string{
		{"-run", "lock", "-lock", "tk", "-protocol", "WI"},
		{"-run", "lock", "-lock", "mcs", "-protocol", "CU"},
		{"-run", "lock", "-lock", "ucmcs", "-protocol", "PU"},
		{"-run", "barrier", "-barrier", "cb", "-protocol", "PU"},
		{"-run", "barrier", "-barrier", "db", "-protocol", "WI"},
		{"-run", "barrier", "-barrier", "tb", "-protocol", "CU"},
		{"-run", "reduction", "-reduction", "sr", "-protocol", "PU"},
		{"-run", "reduction", "-reduction", "pr", "-protocol", "WI"},
	} {
		args := append(c, size...)
		fmt.Fprintf(&got, "== %s\n%s", strings.Join(args, " "), mustCLI(t, args...))
	}
	if got.String() != string(want) {
		t.Errorf("stdout drifted from testdata/single_runs_p4.golden:\n%s", got.String())
	}
	for _, c := range [][]string{
		{"-run", "lock", "-lock", "bogus"},
		{"-run", "barrier", "-barrier", "bogus"},
		{"-run", "reduction", "-reduction", "bogus"},
		{"-run", "bogus"},
		{"-run", "lock", "-protocol", "bogus"},
	} {
		if code, _, _ := cli(append(c, size...)...); code != 1 {
			t.Errorf("%v: exit %d, want 1", c, code)
		}
	}
}

// TestRunLockSummary pins the -run lock stdout: the three summary lines
// every run kind shares, then the miss-category bars only the CLI draws.
func TestRunLockSummary(t *testing.T) {
	const want = `MCS lock, CU, P=8: 496 acquires
  avg acquire-release latency: 48.2 cycles
  miss/upgrade transactions: 520   update messages: 5904   network messages: 13.9K
  miss categories:
 cold  ## 32
 true   0
false   0
evict   0
 drop  ######################################## 488
 excl   0
`
	if got := mustCLI(t, "-run", "lock", "-lock", "mcs", "-protocol", "CU", "-procs", "8", "-iterations", "500"); got != want {
		t.Errorf("stdout:\n%s\nwant:\n%s", got, want)
	}
}

func fileSHA256(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestSingleRunObservability drives the -run path with every
// observability output enabled and validates the produced artifacts.
func TestSingleRunObservability(t *testing.T) {
	dir := t.TempDir()
	metricsOut, metricsCSV := filepath.Join(dir, "m.json"), filepath.Join(dir, "m.csv")
	timelineOut, traceOut := filepath.Join(dir, "tl.json"), filepath.Join(dir, "tr.log")
	mustCLI(t, "-run", "lock", "-lock", "mcs", "-protocol", "CU", "-procs", "4", "-iterations", "200",
		"-metrics-out", metricsOut, "-metrics-csv", metricsCSV, "-metrics-interval", "500",
		"-timeline-out", timelineOut, "-trace", "200", "-trace-out", traceOut)

	// Metrics JSON: parses, has the lock-acquire histogram and sampled
	// series.
	var rep metrics.Report
	b, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("metrics JSON does not parse: %v", err)
	}
	if rep.Version != metrics.ReportVersion || len(rep.Runs) != 1 {
		t.Fatalf("version/runs = %d/%d", rep.Version, len(rep.Runs))
	}
	s := rep.Runs[0].Metrics
	if s == nil || s.Histograms["latency.lock_acquire"].Count == 0 {
		t.Error("lock-acquire histogram missing from single-run metrics")
	}
	if s.Series == nil || s.Series.Interval != 500 {
		t.Error("sampled series missing from single-run metrics")
	}

	// CSV: header plus at least one series row.
	csv, err := os.ReadFile(metricsCSV)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if lines[0] != "label,frame,t_start,t_end,counter,delta" || len(lines) < 2 {
		t.Errorf("unexpected CSV shape: %d lines, header %q", len(lines), lines[0])
	}

	// Timeline: Chrome trace-event JSON whose stall slices and folded
	// trace instants are, in order, the ones testdata/timeline_mcs_cu_p4.golden
	// lists ("X tid ts dur reason", "i tid ts name"), with transaction
	// spans, fan-out legs and flow arrows besides.
	var doc struct {
		TraceEvents []struct {
			Name  string                  `json:"name"`
			Phase string                  `json:"ph"`
			Ts    uint64                  `json:"ts"`
			Dur   uint64                  `json:"dur"`
			Tid   int                     `json:"tid"`
			Cat   string                  `json:"cat"`
			Args  struct{ Reason string } `json:"args"`
		} `json:"traceEvents"`
	}
	tb, err := os.ReadFile(timelineOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tb, &doc); err != nil {
		t.Fatalf("timeline JSON does not parse: %v", err)
	}
	var got strings.Builder
	cats := map[string]int{}
	for _, e := range doc.TraceEvents {
		cats[e.Cat]++
		switch {
		case e.Cat == "stall":
			fmt.Fprintf(&got, "X %d %d %d %s\n", e.Tid, e.Ts, e.Dur, e.Args.Reason)
		case e.Phase == "i":
			fmt.Fprintf(&got, "i %d %d %s\n", e.Tid, e.Ts, e.Name)
		}
	}
	want, err := os.ReadFile(filepath.Join("testdata", "timeline_mcs_cu_p4.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n"); got.String() != string(want) {
		i := 0
		for i < len(g)-1 && i < len(w)-1 && g[i] == w[i] {
			i++
		}
		t.Errorf("timeline stalls and instants: %d lines, golden %d; line %d is %q, golden %q", len(g)-1, len(w)-1, i+1, g[i], w[i])
	}
	if cats["txn"] == 0 || cats["fanout"] == 0 || cats["flow"] == 0 {
		t.Errorf("timeline has %d spans, %d fan-out legs, %d flow events; want all three", cats["txn"], cats["fanout"], cats["flow"])
	}
	if got := fileSHA256(t, timelineOut); got != "a011d48349cb8bddb6851110133c4551090fe734fc97d683b8879558dcd1bdc9" {
		t.Errorf("-timeline-out sha256 = %s", got)
	}

	// Trace dump: summary line plus events.
	tr, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(tr), "trace: ") {
		t.Error("trace dump missing summary line")
	}
}

// TestCLIMatchesExecute: the CLI is flags in front of the executor
// (service.BatchExecutor), so what it prints and writes is the
// executor's result for the canonical spec, byte for byte.
func TestCLIMatchesExecute(t *testing.T) {
	dir := t.TempDir()
	metricsOut, breakdownOut := filepath.Join(dir, "m.json"), filepath.Join(dir, "b.json")
	for _, c := range []struct {
		args string
		spec service.JobSpec
	}{
		{"-experiment fig11 -quick -parallel 2", service.JobSpec{Experiment: "fig11"}},
		{"-experiment fig11 -quick -parallel 2 -format csv", service.JobSpec{Experiment: "fig11", Format: "csv"}},
		{"-run lock -procs 8 -iterations 400", service.JobSpec{Run: "lock", Procs: 8, Iterations: 400}},
		{"-run barrier -barrier tree -protocol c -procs 8 -iterations 50", service.JobSpec{Run: "barrier", Algo: "tb", Protocol: "CU", Procs: 8, Iterations: 50}},
		{"-run reduction -reduction PR -protocol pu -procs 8 -iterations 50", service.JobSpec{Run: "reduction", Algo: "pr", Protocol: "PU", Procs: 8, Iterations: 50}},
	} {
		c.spec.Breakdown = true
		spec, err := service.Canonicalize(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		want, err := service.BatchExecutor()(context.Background(), spec, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		stdout := mustCLI(t, append(strings.Fields(c.args), "-metrics-out", metricsOut, "-breakdown-out", breakdownOut)...)
		if spec.Run == "lock" {
			// The bars are the CLI's own; TestRunLockSummary pins them.
			stdout = stdout[:strings.Index(stdout, "  miss categories:")]
		}
		if spec.Kind == "run" {
			// One machine, one protocol: the CLI's envelope names it.
			want.Breakdown.Protocol = spec.Protocol
		}
		if stdout != want.Output {
			t.Errorf("%s: stdout differs from the executor's Output:\n%s\nwant:\n%s", c.args, stdout, want.Output)
		}
		for path, write := range map[string]func(io.Writer) error{
			metricsOut:   want.Metrics.WriteJSON,
			breakdownOut: want.Breakdown.WriteJSON,
		} {
			var doc bytes.Buffer
			if err := write(&doc); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, doc.Bytes()) {
				t.Errorf("%s: %s differs from the executor's report", c.args, filepath.Base(path))
			}
		}
	}
}

// TestExperimentsDeterministicAcrossWorkers: what -experiment prints and
// exports is byte-identical at -parallel 1 and 4 — through the point
// memo, whose single-flight races must never reach a result — the
// two-phase fig9 and -experiment all match their goldens, and all, which
// shares one memo across its figures, prints exactly what the figures
// print one invocation each. all also exports the breakdown report,
// which the experiments that record no runs leave to the rest.
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	golden := func(name string) string {
		b, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var all string
	for _, c := range []struct {
		args     string
		interval string // also export the metrics report, sampled at this interval
		want     string // the committed stdout, if there is one
	}{
		{args: "-experiment fig8 -quick", interval: "1000"},
		{args: "-experiment extlocks -quick", interval: "1000"},
		{args: "-experiment all -quick", interval: "10000", want: golden("all_quick.golden")},
	} {
		isAll := strings.HasPrefix(c.args, "-experiment all ")
		if isAll && testing.Short() {
			continue
		}
		var stdout [2]string
		var report, breakdown [2][]byte
		for i, workers := range []string{"1", "4"} {
			args := append(strings.Fields(c.args), "-parallel", workers)
			path := filepath.Join(dir, "m"+workers+".json")
			if c.interval != "" {
				args = append(args, "-metrics-out", path, "-metrics-interval", c.interval)
			}
			bpath := filepath.Join(dir, "b"+workers+".json")
			if isAll {
				args = append(args, "-breakdown-out", bpath)
			}
			if stdout[i] = mustCLI(t, args...); stdout[i] == "" {
				t.Errorf("%s: no output", c.args)
			}
			if c.interval != "" {
				var err error
				if report[i], err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
			}
			if isAll {
				var err error
				if breakdown[i], err = os.ReadFile(bpath); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !bytes.Equal(breakdown[0], breakdown[1]) || isAll && !bytes.Contains(breakdown[0], []byte("Extended lock sweep/uc-c/P=32")) {
			t.Errorf("%s: breakdown report differs between -parallel 1 and 4, or misses the last collected figure", c.args)
		}
		if stdout[0] != stdout[1] {
			t.Errorf("%s: stdout differs between -parallel 1 and 4", c.args)
		}
		if !bytes.Equal(report[0], report[1]) {
			t.Errorf("%s: metrics report differs between -parallel 1 and 4", c.args)
		}
		if c.want != "" && stdout[0] != c.want {
			t.Errorf("%s: stdout drifted from the golden:\n%s", c.args, stdout[0])
		}
		if c.interval != "" {
			var rep metrics.Report
			if err := json.Unmarshal(report[0], &rep); err != nil {
				t.Fatal(err)
			}
			if len(rep.Runs) == 0 || fmt.Sprint(rep.Interval) != c.interval {
				t.Errorf("%s: %d runs at interval %d, want some at %s", c.args, len(rep.Runs), rep.Interval, c.interval)
			}
		}
		if isAll {
			all = stdout[0]
		}
	}
	if testing.Short() {
		return
	}
	var each strings.Builder
	for _, e := range experiments.Catalog() {
		fmt.Fprintf(&each, "== %s (%s) ==\n%s", e.Name, e.Description, mustCLI(t, "-experiment", e.Name, "-quick", "-parallel", "2"))
	}
	if all != each.String() {
		t.Error("-experiment all -quick differs from its figures run one invocation each")
	}
}

// TestRunRejectsBadFlags: values the run paths cannot honour are refused
// up front with one "coherencesim: ..." line and exit status 1 — not a
// panic from machine.New, a NaN latency, or a silently ignored flag.
// All but the one-mode-flag rows are service.Canonicalize speaking. A
// report flag no experiment it names would fill exits 2, bad usage.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args, want string
	}{
		{"-run lock -procs 0", "procs 0 out of range 1..64"},
		{"-run lock -procs 65", "procs 65 out of range 1..64"},
		{"-run barrier -procs -3", "procs -3 out of range 1..64"},
		{"-run lock -procs 4 -iterations 3", "iterations 3 is fewer than one acquire per processor (procs 4)"},
		{"-run barrier -procs 4 -iterations -1", "iterations -1 is negative"},
		{"-experiment fig8 -quick -timeline-out x.json", "-timeline-out applies to -run mode only"},
		{"-experiment fig8 -quick -trace 100", "-trace applies to -run mode only"},
		{"-experiment fig8 -quick -trace-out x.log", "-trace-out applies to -run mode only"},
		{"-experiment fig9 -quick -procs 8", "-procs applies to -run mode only"},
		{"-experiment fig9 -quick -protocol PU", "-protocol applies to -run mode only"},
		{"-experiment fig9 -quick -iterations 64", "-iterations applies to -run mode only"},
		{"-experiment fig8 -lock mcs", "-lock applies to -run mode only"},
		{"-experiment fig11 -barrier db", "-barrier applies to -run mode only"},
		{"-experiment fig14 -reduction pr", "-reduction applies to -run mode only"},
		{"-run lock -quick", "-quick applies to -experiment mode only"},
		{"-run lock -format csv", "-format applies to -experiment mode only"},
		{"-run lock -parallel 2", "-parallel applies to -experiment mode only"},
		{"-run barrier -progress", "-progress applies to -experiment mode only"},
		{"-experiment fig8 -quick -metrics-out x.json -metrics-interval 0", "-metrics-interval must be positive"},
		{"-run lock -procs 4 -trace-out x.log", "-trace-out needs -trace N"},
		{"-run lock -procs 4 -trace -3", "-trace -3 is negative"},
	} {
		code, stdout, stderr := cli(strings.Fields(c.args)...)
		if code != 1 || stdout != "" {
			t.Errorf("%s: exit %d, stdout %q, want 1 and none", c.args, code, stdout)
		}
		if want := "coherencesim: " + c.want + "\n"; stderr != want {
			t.Errorf("%s: stderr %q, want %q", c.args, stderr, want)
		}
	}
	mustCLI(t, "-run", "lock", "-procs", "4", "-iterations", "4", "-breakdown") // smallest valid lock run
	// A report flag on experiments that record no runs is bad usage: the
	// report would be empty.
	for _, c := range []struct{ args, want string }{
		{"-experiment ablations -quick -metrics-out m.json -breakdown-out b.json", "-breakdown-out: experiment ablations records no metrics or breakdown runs"},
		{"-experiment contention -quick -breakdown", "-breakdown: experiment contention records no metrics or breakdown runs"},
		{"-experiment apps -quick -metrics-csv m.csv", "-metrics-csv: experiment apps records no metrics or breakdown runs"},
	} {
		code, stdout, stderr := cli(strings.Fields(c.args)...)
		if code != 2 || stdout != "" {
			t.Errorf("%s: exit %d, stdout %q, want 2 and none", c.args, code, stdout)
		}
		if want := "coherencesim: " + c.want + "\n"; stderr != want {
			t.Errorf("%s: stderr %q, want %q", c.args, stderr, want)
		}
	}
	if code, _, _ := cli("-no-such-flag"); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	if code, _, _ := cli(); code != 2 {
		t.Errorf("no mode: exit %d, want 2", code)
	}
}
