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

// TestBaselineRegressionFails: the baseline check fails a configuration
// whose entry moved in any field but ms, in either direction, and names
// the regeneration command; a baseline that differs only in ms passes.
func TestBaselineRegressionFails(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-protocol", "WI", "-procs", "2", "-blocks", "1"}
	reportPath := filepath.Join(dir, "report.json")
	if code, out, _ := capture(t, append(args, "-json", reportPath)...); code != 0 {
		t.Fatalf("baseline generation failed (%d):\n%s", code, out)
	}
	raw, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		edit func(*reportEntry)
		want int
	}{
		{"inflated states", func(e *reportEntry) { e.States += 9 }, 1},
		{"deflated states", func(e *reportEntry) { e.States-- }, 1},
		{"transitions only", func(e *reportEntry) { e.Transitions++ }, 1},
		{"ms only", func(e *reportEntry) { e.Millis += 1000 }, 0},
	} {
		var base report
		if err := json.Unmarshal(raw, &base); err != nil {
			t.Fatal(err)
		}
		tc.edit(&base.Entries[0])
		edited, _ := json.Marshal(&base)
		baseline := filepath.Join(dir, "baseline.json")
		if err := os.WriteFile(baseline, edited, 0o644); err != nil {
			t.Fatal(err)
		}
		code, out, _ := capture(t, append(args, "-baseline", baseline)...)
		if mismatch := strings.Contains(out, "BASELINE MISMATCH") && strings.Contains(out, "-json "+baseline); code != tc.want || mismatch != (tc.want == 1) {
			t.Errorf("%s: exit %d, want %d; out:\n%s", tc.name, code, tc.want, out)
		}
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
