package mc

import (
	"slices"
	"strings"
	"testing"

	"coherencesim/internal/cache"
	"coherencesim/internal/proto"
)

// read, write, atomic and flush are processor p's issues on block b,
// word w.
func read(p, b, w uint8) action   { return issueOf(p, OpRead, b, w) }
func write(p, b, w uint8) action  { return issueOf(p, OpWrite, b, w) }
func atomic(p, b, w uint8) action { return issueOf(p, OpAtomic, b, w) }
func flush(p, b uint8) action     { return issueOf(p, OpFlush, b, 0) }

func issueOf(p uint8, k OpKind, b, w uint8) action {
	return action{issue: true, p: p, kind: k, block: b, word: w}
}

// runSchedule issues a sequential schedule through the walker's
// interface: each operation is applied and then drained by applying the
// first enabled delivery, (src, dst)-ascending, until none is left, with
// every invariant checked after each action and quiescence required
// after each operation. It returns the model in the final state.
func runSchedule(t *testing.T, cfg Config, sched []action) *liveModel {
	t.Helper()
	m := newLiveModel(cfg)
	s := m.root
	for i, op := range sched {
		for a := op; ; {
			next, why := m.apply(s, a)
			if why != "" {
				t.Fatalf("op %d (%v), action %v: %s", i, op, a, why)
			}
			s = next
			acts := m.enabled(s)
			if kind, why, _ := m.check(s, len(acts) == 0); kind != "" {
				t.Fatalf("op %d (%v), after %v: %s: %s", i, op, a, kind, why)
			}
			j := slices.IndexFunc(acts, func(a action) bool { return !a.issue })
			if j < 0 {
				break
			}
			a = acts[j]
		}
		if !m.quiescent() {
			t.Fatalf("op %d (%v): drained but not quiescent", i, op)
		}
	}
	return m
}

// TestConformanceHandWritten runs one small sequential schedule per
// protocol mechanism through the live handlers, checking every
// invariant after each action.
func TestConformanceHandWritten(t *testing.T) {
	cases := []struct {
		name     string
		protocol proto.Protocol
		procs    int
		cuThresh uint8
		sched    []action
	}{
		// WI invalidation fan-out: three sharers, then a write that must
		// invalidate two and grant exclusivity.
		{"wi-invalidation-fanout", proto.WI, 3, 4,
			[]action{read(0, 0, 0), read(1, 0, 0), read(2, 0, 0), write(0, 0, 0), read(1, 0, 0)}},
		// WI upgrade after dirty write-back via flush.
		{"wi-flush-writeback", proto.WI, 2, 4,
			[]action{write(0, 0, 0), flush(0, 0), read(1, 0, 0), write(1, 0, 0)}},
		// PU multi-sharer update: everyone re-reads the written value.
		{"pu-multisharer-update", proto.PU, 3, 4,
			[]action{read(0, 0, 0), read(1, 0, 0), read(2, 0, 0), write(0, 0, 0), read(1, 0, 0), read(2, 0, 0)}},
		// PU private-block retention: sole sharer writes, retains, then a
		// second node's read demotes the retained copy.
		{"pu-retention-demote", proto.PU, 2, 4,
			[]action{read(0, 0, 0), write(0, 0, 0), write(0, 0, 0), read(1, 0, 0)}},
		// CU threshold flip: threshold 2, two remote writes drop the copy.
		{"cu-threshold-flip", proto.CU, 2, 2,
			[]action{read(0, 0, 0), read(1, 0, 0), write(0, 0, 0), write(0, 0, 0), read(1, 0, 0)}},
		// CU counter reset by local reference keeps the copy alive.
		{"cu-counter-reset", proto.CU, 2, 2,
			[]action{read(0, 0, 0), read(1, 0, 0), write(0, 0, 0), read(1, 0, 0), write(0, 0, 0), read(1, 0, 0)}},
		// Atomics: home-executed under update protocols, cache-executed
		// under WI.
		{"wi-atomic-chain", proto.WI, 2, 4,
			[]action{atomic(0, 0, 0), atomic(1, 0, 0), read(0, 0, 0)}},
		{"cu-atomic-chain", proto.CU, 2, 4,
			[]action{read(1, 0, 0), atomic(0, 0, 0), atomic(1, 0, 0), read(0, 0, 0)}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(tc.protocol)
			cfg.Procs = tc.procs
			cfg.CUThreshold = tc.cuThresh
			cfg.OpsPerProc = MaxOps
			runSchedule(t, cfg, tc.sched)
		})
	}
}

// TestModelScheduleExpectations pins concrete outcomes of the
// hand-written mechanisms, so the table above cannot pass on a wrong
// answer that happens to be coherent.
func TestModelScheduleExpectations(t *testing.T) {
	// CU threshold flip: after two remote writes at threshold 2, p1's
	// copy must be gone and the home must have dropped it from the
	// sharer set.
	cfg := DefaultConfig(proto.CU)
	cfg.CUThreshold = 2
	cfg.OpsPerProc = MaxOps
	bd := runSchedule(t, cfg, []action{read(0, 0, 0), read(1, 0, 0), write(0, 0, 0), write(0, 0, 0)}).dump(0)
	if bd.Lines[1].State != cache.Invalid {
		t.Error("CU copy survived the threshold")
	}
	if bd.Dir.Has(1) {
		t.Error("home still lists the dropped sharer")
	}

	// PU retention: sole sharer's second write runs locally (Exclusive)
	// with the directory recording ownership.
	cfg = DefaultConfig(proto.PU)
	cfg.OpsPerProc = MaxOps
	bd = runSchedule(t, cfg, []action{read(0, 0, 0), write(0, 0, 0), write(0, 0, 0)}).dump(0)
	if bd.Lines[0].State != cache.Exclusive || bd.Dir.State != proto.DirOwned || bd.Dir.Owner != 0 {
		t.Errorf("PU retention did not take: line=%v dir=%v owner=%d", bd.Lines[0].State, bd.Dir.State, bd.Dir.Owner)
	}

	// WI invalidation: a write invalidates the other sharer.
	cfg = DefaultConfig(proto.WI)
	cfg.OpsPerProc = MaxOps
	bd = runSchedule(t, cfg, []action{read(0, 0, 0), read(1, 0, 0), write(0, 0, 0)}).dump(0)
	if bd.Lines[1].State != cache.Invalid {
		t.Error("WI write left the other sharer's copy valid")
	}
	if bd.Lines[0].State != cache.Exclusive || !bd.Lines[0].Dirty {
		t.Error("WI writer did not end exclusive+dirty")
	}
}

// TestApplyRecoversPanic: a panic in the handlers is an internal
// verdict carrying the panic's text, never a crash, and the explorer is
// reset. Here node 0's exclusive line vanishes behind the protocol's
// back, so fetching it for node 1's read finds nothing to take.
func TestApplyRecoversPanic(t *testing.T) {
	m := newLiveModel(DefaultConfig(proto.WI))
	s := m.root
	step := func(a action) string {
		next, why := m.apply(s, a)
		if why == "" {
			s = next
		}
		return why
	}
	for _, a := range []action{write(0, 0, 0), {src: 0, dst: 0}, {src: 0, dst: 0}} {
		if why := step(a); why != "" {
			t.Fatalf("%v: %s", a, why)
		}
	}
	m.x.Cache(0).Invalidate(0)
	for _, a := range []action{read(1, 0, 0), {src: 1, dst: 0}} {
		if why := step(a); why != "" {
			t.Fatalf("%v: %s", a, why)
		}
	}
	why := step(action{src: 0, dst: 0})
	if !strings.Contains(why, "panic: proto: owner holds neither line nor pending write-back") {
		t.Fatalf("owner fetch gave %q, want the recovered panic", why)
	}
	if m.at != m.root || len(m.x.Queue(1, 0)) > 0 || m.dump(0).Lines[0].State != cache.Invalid {
		t.Fatal("explorer not reset after the panic")
	}
	if acts := m.enabled(m.root); len(acts) != 2*4 {
		t.Fatalf("initial state enables %v", acts)
	}
}
