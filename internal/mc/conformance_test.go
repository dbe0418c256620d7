package mc

import (
	"fmt"
	"testing"

	"coherencesim/internal/cache"
	"coherencesim/internal/proto"
)

// TestConformanceBulk replays >= 1000 generated schedules per protocol
// through both the model and the live proto.System, comparing stable
// states after every operation (the ISSUE acceptance bar).
func TestConformanceBulk(t *testing.T) {
	target := 1100
	if testing.Short() {
		target = 120
	}
	for _, p := range allProtocols() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(p)
			cfg.Blocks = 2
			cfg.OpsPerProc = MaxOps // schedules are up to 3 ops on one proc
			scheds := GenerateSchedules(cfg, target)
			if len(scheds) < target {
				t.Fatalf("generated only %d schedules, want >= %d", len(scheds), target)
			}
			n, err := RunConformance(cfg, scheds)
			if err != nil {
				t.Fatalf("after %d conforming schedules: %v", n, err)
			}
			t.Logf("%v: %d schedules conform", p, n)
		})
	}
}

// TestConformanceCUThreshold exercises the CU drop edge under a low
// threshold so counter-driven self-invalidation is cross-checked too.
func TestConformanceCUThreshold(t *testing.T) {
	cfg := DefaultConfig(proto.CU)
	cfg.CUThreshold = 2
	cfg.OpsPerProc = MaxOps
	scheds := GenerateSchedules(cfg, 400)
	n, err := RunConformance(cfg, scheds)
	if err != nil {
		t.Fatalf("after %d conforming schedules: %v", n, err)
	}
}

// Satellite: table-driven model-vs-implementation conformance on tiny
// hand-written schedules, one per protocol mechanism, independent of
// the generated sweep above.
func TestConformanceHandWritten(t *testing.T) {
	read := func(p, b, w int) ScheduleOp { return ScheduleOp{P: p, Kind: OpRead, Block: b, Word: w} }
	write := func(p, b, w int) ScheduleOp { return ScheduleOp{P: p, Kind: OpWrite, Block: b, Word: w} }
	atomic := func(p, b, w int) ScheduleOp { return ScheduleOp{P: p, Kind: OpAtomic, Block: b, Word: w} }
	flush := func(p, b int) ScheduleOp { return ScheduleOp{P: p, Kind: OpFlush, Block: b} }

	cases := []struct {
		name     string
		protocol proto.Protocol
		procs    int
		cuThresh uint8
		sched    Schedule
	}{
		// WI invalidation fan-out: three sharers, then a write that must
		// invalidate two and grant exclusivity.
		{"wi-invalidation-fanout", proto.WI, 3, 4,
			Schedule{read(0, 0, 0), read(1, 0, 0), read(2, 0, 0), write(0, 0, 0), read(1, 0, 0)}},
		// WI upgrade after dirty write-back via flush.
		{"wi-flush-writeback", proto.WI, 2, 4,
			Schedule{write(0, 0, 0), flush(0, 0), read(1, 0, 0), write(1, 0, 0)}},
		// PU multi-sharer update: everyone re-reads the written value.
		{"pu-multisharer-update", proto.PU, 3, 4,
			Schedule{read(0, 0, 0), read(1, 0, 0), read(2, 0, 0), write(0, 0, 0), read(1, 0, 0), read(2, 0, 0)}},
		// PU private-block retention: sole sharer writes, retains, then a
		// second node's read demotes the retained copy.
		{"pu-retention-demote", proto.PU, 2, 4,
			Schedule{read(0, 0, 0), write(0, 0, 0), write(0, 0, 0), read(1, 0, 0)}},
		// CU threshold flip: threshold 2, two remote writes drop the copy.
		{"cu-threshold-flip", proto.CU, 2, 2,
			Schedule{read(0, 0, 0), read(1, 0, 0), write(0, 0, 0), write(0, 0, 0), read(1, 0, 0)}},
		// CU counter reset by local reference keeps the copy alive.
		{"cu-counter-reset", proto.CU, 2, 2,
			Schedule{read(0, 0, 0), read(1, 0, 0), write(0, 0, 0), read(1, 0, 0), write(0, 0, 0), read(1, 0, 0)}},
		// Atomics: home-executed under update protocols, cache-executed
		// under WI.
		{"wi-atomic-chain", proto.WI, 2, 4,
			Schedule{atomic(0, 0, 0), atomic(1, 0, 0), read(0, 0, 0)}},
		{"cu-atomic-chain", proto.CU, 2, 4,
			Schedule{read(1, 0, 0), atomic(0, 0, 0), atomic(1, 0, 0), read(0, 0, 0)}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(tc.protocol)
			cfg.Procs = tc.procs
			cfg.CUThreshold = tc.cuThresh
			cfg.OpsPerProc = MaxOps
			if _, err := RunConformance(cfg, []Schedule{tc.sched}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// runModelSchedule executes a schedule sequentially on the model,
// checking after each operation that the model is quiescent and every
// invariant holds. Returns the final state and the observed read/atomic
// results.
func runModelSchedule(cfg Config, sched Schedule) (*state, *observer, error) {
	st, obs := newState(cfg), &observer{}
	m := protoModel{cfg: cfg, obs: obs}
	for i, op := range sched {
		var why string
		if st, why = modelStep(m, st, op); why != "" {
			return nil, nil, fmt.Errorf("op %d (%v): %s", i, op, why)
		}
		if !st.quiescent(cfg) {
			return nil, nil, fmt.Errorf("op %d (%v): drained but not quiescent", i, op)
		}
		if why := checkEvery(cfg, st); why != "" {
			return nil, nil, fmt.Errorf("op %d (%v): %s", i, op, why)
		}
		if why := checkQuiescent(cfg, st); why != "" {
			return nil, nil, fmt.Errorf("op %d (%v): %s", i, op, why)
		}
	}
	return st, obs, nil
}

// TestModelScheduleExpectations pins concrete model outcomes for the
// hand-written mechanisms (so the table above cannot silently degrade
// into comparing two wrong answers).
func TestModelScheduleExpectations(t *testing.T) {
	// CU threshold flip: after two remote writes at threshold 2, p1's
	// copy must be gone and the home must have dropped it from the
	// sharer set.
	cfg := DefaultConfig(proto.CU)
	cfg.CUThreshold = 2
	cfg.OpsPerProc = MaxOps
	st, _, err := runModelSchedule(cfg, Schedule{
		{P: 0, Kind: OpRead}, {P: 1, Kind: OpRead},
		{P: 0, Kind: OpWrite}, {P: 0, Kind: OpWrite},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.lines[1][0].state != cache.Invalid {
		t.Error("CU copy survived the threshold")
	}
	if st.dirs[0].Has(1) {
		t.Error("home still lists the dropped sharer")
	}

	// PU retention: sole sharer's second write runs locally (Exclusive,
	// dirty) with the directory recording ownership.
	cfg = DefaultConfig(proto.PU)
	cfg.OpsPerProc = MaxOps
	st, _, err = runModelSchedule(cfg, Schedule{
		{P: 0, Kind: OpRead}, {P: 0, Kind: OpWrite}, {P: 0, Kind: OpWrite},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.lines[0][0].state != cache.Exclusive || st.dirs[0].State != proto.DirOwned || st.dirs[0].Owner != 0 {
		t.Errorf("PU retention did not take: line=%v dir=%v owner=%d",
			st.lines[0][0].state, st.dirs[0].State, st.dirs[0].Owner)
	}

	// WI invalidation: a write invalidates the other sharer.
	cfg = DefaultConfig(proto.WI)
	cfg.OpsPerProc = MaxOps
	st, _, err = runModelSchedule(cfg, Schedule{
		{P: 0, Kind: OpRead}, {P: 1, Kind: OpRead}, {P: 0, Kind: OpWrite},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.lines[1][0].state != cache.Invalid {
		t.Error("WI write left the other sharer's copy valid")
	}
	if st.lines[0][0].state != cache.Exclusive || !st.lines[0][0].dirty {
		t.Error("WI writer did not end exclusive+dirty")
	}
}
