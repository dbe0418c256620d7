package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs the CLI with stdout/stderr captured to temp files.
func capture(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	dir := t.TempDir()
	mk := func(name string) *os.File {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	stdout, stderr := mk("stdout"), mk("stderr")
	code := run(args, stdout, stderr)
	stdout.Close()
	stderr.Close()
	rd := func(name string) string {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	return code, rd("stdout"), rd("stderr")
}

func TestCleanRunExitsZero(t *testing.T) {
	code, out, _ := capture(t, "-protocol", "WI", "-procs", "2", "-blocks", "1")
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "no violations") {
		t.Fatalf("missing success line:\n%s", out)
	}
}

func TestSeededFaultExitsNonZeroAndTraceReplays(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	code, out, _ := capture(t, "-protocol", "WI", "-procs", "3", "-blocks", "1",
		"-fault", "skip-inv-ack", "-json", report)
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Entries []struct {
			Violations []struct {
				Trace json.RawMessage `json:"trace"`
			} `json:"violations"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) == 0 || len(rep.Entries[0].Violations) == 0 {
		t.Fatal("report carries no counterexample")
	}
	// The serialized trace must replay to a violation via -replay.
	tracePath := filepath.Join(dir, "trace.json")
	if err := os.WriteFile(tracePath, rep.Entries[0].Violations[0].Trace, 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ = capture(t, "-replay", tracePath)
	if code != 1 || !strings.Contains(out, "reproduced") {
		t.Fatalf("replay exit %d, out:\n%s", code, out)
	}
}

func TestBaselineRegressionFails(t *testing.T) {
	dir := t.TempDir()
	report := filepath.Join(dir, "report.json")
	if code, out, _ := capture(t, "-protocol", "WI", "-procs", "2", "-blocks", "1", "-json", report); code != 0 {
		t.Fatalf("baseline generation failed (%d):\n%s", code, out)
	}
	// Inflate the baseline's state count: the same run must now regress.
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	inflated := strings.Replace(string(raw), `"states": `, `"states": 9`, 1)
	baseline := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(baseline, []byte(inflated), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, _ := capture(t, "-protocol", "WI", "-procs", "2", "-blocks", "1", "-baseline", baseline)
	if code != 1 || !strings.Contains(out, "REGRESSION") {
		t.Fatalf("exit %d, out:\n%s", code, out)
	}
}

// TestBadFlagsExitTwo: every flag value the checker cannot honour exits
// 2 before exploring anything — a CU threshold outside 1..255 included,
// which would otherwise wrap or fall back to the default.
func TestBadFlagsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{"-protocol", "XX"},
		{"-procs", "9"},
		{"-fault", "nonsense"},
		{"-ops", "read,jump"},
		{"-ops", "read,read"},
		{"-max-states", "-5"},
		{"-cu-threshold", "0"},
		{"-cu-threshold", "256"},
		{"-cu-threshold", "-1"},
	} {
		if code, out, _ := capture(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", args, code, out)
		}
	}
}
