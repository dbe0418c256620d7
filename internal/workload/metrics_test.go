package workload

import (
	"testing"

	"coherencesim/internal/machine"
	"coherencesim/internal/metrics"
	"coherencesim/internal/proto"
)

// TestMetricsMatchProcStats cross-checks the metrics layer against the
// independent per-processor accounting: every cycle-classified counter
// must equal the sum of the corresponding ProcStats field, and the
// sampled series must sum to the counter totals.
func TestMetricsMatchProcStats(t *testing.T) {
	p := DefaultLockParams(proto.CU, 8)
	p.Iterations = 800
	p.MetricsInterval = 1000
	res := LockLoop(p, MCS)
	s := res.Metrics
	if s == nil {
		t.Fatal("no metrics snapshot")
	}

	var want machine.ProcStats
	for _, ps := range res.PerProc {
		want.Busy += ps.Busy
		want.ReadStall += ps.ReadStall
		want.WriteStall += ps.WriteStall
		want.FenceStall += ps.FenceStall
		want.AtomicStall += ps.AtomicStall
		want.SpinWait += ps.SpinWait
		want.SyncWait += ps.SyncWait
		want.Reads += ps.Reads
		want.Writes += ps.Writes
		want.Atomics += ps.Atomics
		want.Flushes += ps.Flushes
	}
	checks := []struct {
		counter string
		want    uint64
	}{
		{"busy", want.Busy},
		{"stall.read", want.ReadStall},
		{"stall.write", want.WriteStall},
		{"stall.fence", want.FenceStall},
		{"stall.atomic", want.AtomicStall},
		{"stall.spin", want.SpinWait},
		{"stall.sync", want.SyncWait},
		{"ops.reads", want.Reads},
		{"ops.writes", want.Writes},
		{"ops.atomics", want.Atomics},
		{"ops.flushes", want.Flushes},
		{"net.msgs", res.Net.Messages},
		{"net.flits", res.Net.Flits},
	}
	for _, c := range checks {
		if got := s.Counters[c.counter]; got != c.want {
			t.Errorf("counter %q = %d, PerProc/Net say %d", c.counter, got, c.want)
		}
	}
	// Per-interval deltas must sum back to the totals.
	if s.Series == nil {
		t.Fatal("no series")
	}
	for name, deltas := range s.Series.Deltas {
		var sum uint64
		for _, d := range deltas {
			sum += d
		}
		if sum != s.Counters[name] {
			t.Errorf("series %q sums to %d, counter is %d", name, sum, s.Counters[name])
		}
	}
	// The construct recorded one acquire latency per acquire.
	if h := s.Histograms["latency.lock_acquire"]; h.Count != uint64(res.Acquires) {
		t.Errorf("lock-acquire observations = %d, acquires = %d", h.Count, res.Acquires)
	}
}

// TestMetricsDoNotPerturbSimulation: attaching a registry must leave the
// simulated outcome bit-identical — observation only.
func TestMetricsDoNotPerturbSimulation(t *testing.T) {
	base := DefaultBarrierParams(proto.PU, 8)
	base.Iterations = 100
	plain := BarrierLoop(base, Tree)

	observed := base
	observed.MetricsInterval = 500
	withMetrics := BarrierLoop(observed, Tree)

	if plain.Cycles != withMetrics.Cycles {
		t.Errorf("cycles changed: %d vs %d", plain.Cycles, withMetrics.Cycles)
	}
	if plain.Net != withMetrics.Net {
		t.Errorf("network traffic changed: %+v vs %+v", plain.Net, withMetrics.Net)
	}
	if plain.Misses != withMetrics.Misses {
		t.Errorf("miss classification changed")
	}
}

// TestBarrierHistogram: the barrier records one episode latency per
// processor per episode.
func TestBarrierHistogram(t *testing.T) {
	p := DefaultBarrierParams(proto.WI, 4)
	p.Iterations = 50
	p.MetricsInterval = 1000
	res := BarrierLoop(p, Dissemination)
	h := res.Metrics.Histograms["latency.barrier_episode"]
	if want := uint64(50 * 4); h.Count != want {
		t.Errorf("episode observations = %d, want %d", h.Count, want)
	}
	if h.Min == 0 {
		t.Error("barrier episode latency of zero cycles recorded")
	}
}

// TestReductionHistogram: the reducer records one latency per processor
// per episode.
func TestReductionHistogram(t *testing.T) {
	p := DefaultReductionParams(proto.CU, 4)
	p.Iterations = 50
	p.MetricsInterval = 1000
	res := ReductionLoop(p, Sequential)
	h := res.Metrics.Histograms["latency.reduction"]
	if want := uint64(50 * 4); h.Count != want {
		t.Errorf("reduction observations = %d, want %d", h.Count, want)
	}
}

// TestTimelineRecordsStalls: a machine with a timeline attached emits
// per-processor stall slices whose bounds are ordered and within the
// run.
func TestTimelineRecordsStalls(t *testing.T) {
	tl := metrics.NewTimeline()
	p := DefaultLockParams(proto.WI, 4)
	p.Iterations = 200
	p.Tune = func(cfg *machine.Config) { cfg.Timeline = tl }
	res := LockLoop(p, Ticket)
	if tl.Len() == 0 {
		t.Fatal("no timeline events recorded")
	}
	procsSeen := map[int]bool{}
	for _, s := range tl.Slices() {
		if s.Start >= s.End {
			t.Fatalf("empty or inverted slice %+v", s)
		}
		if s.End > res.Cycles {
			t.Fatalf("slice %+v ends after the run (%d cycles)", s, res.Cycles)
		}
		if s.Proc < 0 || s.Proc >= 4 {
			t.Fatalf("slice %+v on unknown processor", s)
		}
		procsSeen[s.Proc] = true
	}
	if len(procsSeen) != 4 {
		t.Errorf("stall slices on %d processors, want all 4", len(procsSeen))
	}
}
