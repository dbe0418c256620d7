package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coherencesim/internal/experiments"
	"coherencesim/internal/metrics"
	"coherencesim/internal/proto"
	"coherencesim/internal/runner"
)

func TestParseProtocol(t *testing.T) {
	cases := map[string]proto.Protocol{
		"WI": proto.WI, "wi": proto.WI, "i": proto.WI,
		"PU": proto.PU, "u": proto.PU,
		"CU": proto.CU, "c": proto.CU,
	}
	for s, want := range cases {
		got, err := parseProtocol(s)
		if err != nil || got != want {
			t.Errorf("parseProtocol(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseProtocol("bogus"); err == nil {
		t.Error("bogus protocol accepted")
	}
}

// microOptions keeps CLI driver tests fast; the pool mirrors the
// -parallel default path the command wires up.
func microOptions() experiments.Options {
	return experiments.Options{
		Procs:             []int{2},
		TrafficProcs:      4,
		LockIterations:    80,
		BarrierEpisodes:   10,
		ReductionEpisodes: 10,
		Runner:            runner.New(2),
	}
}

func TestRunExperimentsDispatch(t *testing.T) {
	o := microOptions()
	for _, id := range []string{"fig8", "fig11", "fig14", "redvariants"} {
		if err := runExperiments(id, o, nil); err != nil {
			t.Errorf("%s: %v", id, err)
		}
	}
	if err := runExperiments("nope", o, nil); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestSingleRunDispatch(t *testing.T) {
	cases := []struct {
		kind, lock, bar, red, protocol string
	}{
		{"lock", "tk", "", "", "WI"},
		{"lock", "mcs", "", "", "CU"},
		{"lock", "ucmcs", "", "", "PU"},
		{"barrier", "", "cb", "", "PU"},
		{"barrier", "", "db", "", "WI"},
		{"barrier", "", "tb", "", "CU"},
		{"reduction", "", "", "sr", "PU"},
		{"reduction", "", "", "pr", "WI"},
	}
	for _, c := range cases {
		if err := singleRun(c.kind, c.lock, c.bar, c.red, c.protocol, 4, 40, obsOptions{}); err != nil {
			t.Errorf("%+v: %v", c, err)
		}
	}
	for _, c := range []struct {
		kind, lock, bar, red, protocol string
	}{
		{"lock", "bogus", "", "", "WI"},
		{"barrier", "", "bogus", "", "WI"},
		{"reduction", "", "", "bogus", "WI"},
		{"bogus", "", "", "", "WI"},
		{"lock", "tk", "", "", "bogus"},
	} {
		if err := singleRun(c.kind, c.lock, c.bar, c.red, c.protocol, 4, 40, obsOptions{}); err == nil {
			t.Errorf("%+v: error expected", c)
		}
	}
}

// TestSingleRunObservability drives the -run path with every
// observability output enabled and validates the produced artifacts.
func TestSingleRunObservability(t *testing.T) {
	dir := t.TempDir()
	ob := obsOptions{
		metricsOut:  filepath.Join(dir, "m.json"),
		metricsCSV:  filepath.Join(dir, "m.csv"),
		interval:    500,
		timelineOut: filepath.Join(dir, "tl.json"),
		traceN:      200,
		traceOut:    filepath.Join(dir, "tr.log"),
	}
	if err := singleRun("lock", "mcs", "", "", "CU", 4, 200, ob); err != nil {
		t.Fatal(err)
	}

	// Metrics JSON: parses, has the lock-acquire histogram and sampled
	// series.
	var rep metrics.Report
	b, err := os.ReadFile(ob.metricsOut)
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
	csv, err := os.ReadFile(ob.metricsCSV)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(csv)), "\n")
	if lines[0] != "label,frame,t_start,t_end,counter,delta" || len(lines) < 2 {
		t.Errorf("unexpected CSV shape: %d lines, header %q", len(lines), lines[0])
	}

	// Timeline: Chrome trace-event JSON with per-processor slices and
	// folded trace instants.
	var doc struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
			Tid   int    `json:"tid"`
		} `json:"traceEvents"`
	}
	tb, err := os.ReadFile(ob.timelineOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tb, &doc); err != nil {
		t.Fatalf("timeline JSON does not parse: %v", err)
	}
	var slices, instants int
	for _, e := range doc.TraceEvents {
		switch e.Phase {
		case "X":
			slices++
		case "i":
			instants++
		}
	}
	if slices == 0 || instants == 0 {
		t.Errorf("timeline has %d slices, %d instants; want both", slices, instants)
	}

	// Trace dump: summary line plus events.
	tr, err := os.ReadFile(ob.traceOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(tr), "trace: ") {
		t.Error("trace dump missing summary line")
	}
}

// TestExperimentMetricsExport drives the experiment path end to end:
// collector wired through Options, report written, deterministic across
// worker counts.
func TestExperimentMetricsExport(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(workers int, out string) []byte {
		o := microOptions()
		o.Runner = runner.New(workers)
		o.Metrics = metrics.NewCollector(1000)
		if err := runExperiments("fig8", o, nil); err != nil {
			t.Fatal(err)
		}
		ob := obsOptions{metricsOut: filepath.Join(dir, out), interval: 1000}
		if err := writeReport(o.Metrics.Report(), ob); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(ob.metricsOut)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a := runOnce(1, "a.json")
	b := runOnce(4, "b.json")
	if string(a) != string(b) {
		t.Error("experiment metrics differ across worker counts")
	}
	var rep metrics.Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) == 0 {
		t.Error("no runs collected")
	}
}

// TestRunRejectsBadFlags: values the run paths cannot honour are refused
// up front with one "coherencesim: ..." line and exit status 1 — not a
// panic from machine.New, a NaN latency, or a silently ignored flag.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		args, want string
	}{
		{"-run lock -procs 65", "procs 65 out of range 1..64"},
		{"-run lock -procs 0", "procs 0 out of range 1..64"},
		{"-run barrier -procs -3", "procs -3 out of range 1..64"},
		{"-run lock -procs 4 -iterations 3", "iterations 3 is fewer than one acquire per processor (procs 4)"},
		{"-run barrier -procs 4 -iterations -1", "iterations -1 is negative"},
		{"-experiment fig8 -quick -timeline-out x.json", "-timeline-out applies to -run mode only"},
		{"-experiment fig8 -quick -trace-txn x.json", "-trace-txn applies to -run mode only"},
		{"-experiment fig8 -quick -trace 100", "-trace applies to -run mode only"},
		{"-experiment fig8 -quick -trace-out x.log", "-trace-out applies to -run mode only"},
	} {
		var stderr strings.Builder
		if code := run(strings.Fields(c.args), &stderr); code != 1 {
			t.Errorf("%s: exit %d, want 1", c.args, code)
		}
		if want := "coherencesim: " + c.want + "\n"; stderr.String() != want {
			t.Errorf("%s: stderr %q, want %q", c.args, stderr.String(), want)
		}
	}
	var stderr strings.Builder
	if code := run(strings.Fields("-run lock -procs 4 -iterations 4 -breakdown"), &stderr); code != 0 || stderr.Len() != 0 {
		t.Errorf("smallest valid lock run: exit %d, stderr %q", code, stderr.String())
	}
	if code := run([]string{"-no-such-flag"}, &stderr); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
}
