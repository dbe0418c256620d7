package mc

import (
	"encoding/json"
	"strings"
	"testing"

	"coherencesim/internal/proto"
	"coherencesim/internal/walk"
)

func allProtocols() []proto.Protocol { return []proto.Protocol{proto.WI, proto.PU, proto.CU} }

// TestExploreSmoke is the tier-1 smoke slice: every protocol at the
// smallest interesting bounds must explore cleanly.
func TestExploreSmoke(t *testing.T) {
	for _, p := range allProtocols() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(p)
			res, err := Explore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("violation: %v\ntrace:\n%s", v, v.Trace.JSON())
			}
			if res.States < 100 {
				t.Errorf("suspiciously small state space: %d states", res.States)
			}
			if res.Quiescent < 2 {
				t.Errorf("expected multiple quiescent states, got %d", res.Quiescent)
			}
			t.Logf("%v: %d states, %d transitions, %d quiescent, depth %d",
				p, res.States, res.Transitions, res.Quiescent, res.MaxDepth)
		})
	}
}

// TestExploreTwoBlocks widens the smoke slice to two blocks and two
// words so cross-block races (write-back vs read, per-word updates) are
// in scope, and pins the two configurations the baseline matrix leaves
// out: PU without retention, and CU at threshold 2, where the drop edge
// is taken (at threshold 4 it never is within two operations).
func TestExploreTwoBlocks(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-block exploration is not short")
	}
	twoBlocks := func(c *Config) { c.Blocks, c.Words = 2, 2 }
	for _, tc := range []struct {
		name                                  string
		protocol                              proto.Protocol
		edit                                  func(*Config)
		states, transitions, quiescent, depth int
	}{
		{"WI", proto.WI, twoBlocks, 165966, 323326, 11552, 18},
		{"PU", proto.PU, twoBlocks, 418585, 850358, 11659, 28},
		{"CU", proto.CU, twoBlocks, 477620, 960924, 17816, 28},
		{"PU-no-retention", proto.PU, func(c *Config) { c.DisableRetention = true }, 4397, 8967, 181, 23},
		{"CU-threshold-2", proto.CU, func(c *Config) { c.CUThreshold = 2 }, 7669, 15371, 335, 28},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(tc.protocol)
			tc.edit(&cfg)
			res, err := Explore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("violation: %v\ntrace:\n%s", v, v.Trace.JSON())
			}
			got := [4]int{res.States, res.Transitions, res.Quiescent, res.MaxDepth}
			if want := [4]int{tc.states, tc.transitions, tc.quiescent, tc.depth}; got != want {
				t.Errorf("states/transitions/quiescent/max_depth = %v, want %v", got, want)
			}
		})
	}
}

// TestExploreThreeProcs runs the three-processor slice used by the CI
// matrix at reduced depth.
func TestExploreThreeProcs(t *testing.T) {
	if testing.Short() {
		t.Skip("three-processor exploration is not short")
	}
	for _, p := range allProtocols() {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(p)
			cfg.Procs = 3
			cfg.OpsPerProc = 1
			res, err := Explore(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("violation: %v\ntrace:\n%s", v, v.Trace.JSON())
			}
		})
	}
}

// seededFaults enumerates every injected fault with the protocol it
// applies to, the one violation kind it must produce, and the length
// of the schedule the walk first finds it at: the stratum that
// catches each fault is pinned, so a rule moving between strata shows.
type seededFault struct {
	name  string
	proto proto.Protocol
	set   func(*Faults)
	kind  walk.Kind
	steps int
}

var seededFaults = []seededFault{
	{"skip-inv-ack", proto.WI, func(f *Faults) { f.SkipInvAck = true }, walk.Deadlock, 16},
	{"grant-before-acks", proto.WI, func(f *Faults) { f.GrantBeforeAcks = true }, walk.Invariant, 15},
	{"skip-drop-notice", proto.CU, func(f *Faults) { f.SkipDropNotice = true }, walk.Quiescent, 18},
	{"phantom-retention", proto.PU, func(f *Faults) { f.PhantomRetention = true }, walk.Invariant, 13},
	{"stale-update-value", proto.PU, func(f *Faults) { f.StaleUpdateValue = true }, walk.Quiescent, 18},
}

// config is the configuration the fault is explored under.
func (tc seededFault) config() Config {
	cfg := DefaultConfig(tc.proto)
	cfg.Procs = 3 // faults on sharer fan-out need a third party
	if tc.proto == proto.CU {
		cfg.CUThreshold = 1 // reach the drop edge within budget
	}
	tc.set(&cfg.Faults)
	return cfg
}

// TestSeededFaultsProduceCounterexamples is the checker's self-test:
// each deliberately broken protocol variant must yield a counterexample,
// and the emitted trace must replay (through the same broken variant) to
// the same violation — while the faithful model replays it cleanly.
func TestSeededFaultsProduceCounterexamples(t *testing.T) {
	for _, tc := range seededFaults {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			res, err := Explore(tc.config())
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Violations) == 0 {
				t.Fatalf("fault %s produced no counterexample over %d states", tc.name, res.States)
			}
			v := res.Violations[0]
			if v.Kind != tc.kind || len(v.Trace.Actions) != tc.steps {
				t.Fatalf("fault %s detected as %v after %d actions (%s), want %v after %d",
					tc.name, v.Kind, len(v.Trace.Actions), v.Detail, tc.kind, tc.steps)
			}

			// The trace must replay to a violation under the same faults.
			rv, err := Replay(&v.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if rv == nil {
				t.Fatalf("counterexample for %s replays cleanly", tc.name)
			}

			// The faithful model must NOT fail on the same schedule — the
			// bug is in the fault, not the schedule. (Deadlock traces are
			// exempt: dropping the fault changes message flow, so the
			// schedule may no longer be executable; guard-validation only.)
			clean := v.Trace
			clean.Faults = Faults{}
			cv, err := Replay(&clean)
			if err != nil {
				t.Fatal(err)
			}
			if cv != nil && cv.Kind != walk.Internal {
				t.Fatalf("faithful model fails the %s schedule too: %v", tc.name, cv)
			}
		})
	}
}

// TestFaithfulReplayRoundTrip: an explored violation-free config's
// schedules replay exactly (spot check via a synthetic trace).
func TestFaithfulReplayRoundTrip(t *testing.T) {
	syn := &Trace{
		Procs: 2, Blocks: 1, Words: 1, OpsPerProc: 2, CUThreshold: 4,
		Actions: []string{
			"p0 write b0.w0", // issue
			"0>0",            // WI request to home (self)
			"0>0",            // grant back
			"p1 read b0.w0",  // issue read
			"1>0",            // read request
			"0>1",            // owner fetch? (home is p0; owner is p0 -> local)
		},
	}
	syn.Protocol = "WI"
	// The exact message flow depends on the model; just require that
	// replay either completes cleanly or reports a guard violation —
	// never panics — and that a malformed action errors.
	if _, err := Replay(syn); err != nil {
		t.Logf("replay reported: %v", err)
	}
	badProto := &Trace{Procs: 2, Blocks: 1, Words: 1, OpsPerProc: 1, CUThreshold: 4}
	badProto.Protocol = "XX"
	if _, err := Replay(badProto); err == nil {
		t.Fatal("bad protocol accepted")
	}
	bad := &Trace{Procs: 2, Blocks: 1, Words: 1, OpsPerProc: 1, CUThreshold: 4, Actions: []string{"garbage"}}
	bad.Protocol = "WI"
	if _, err := Replay(bad); err == nil {
		t.Fatal("garbage action accepted")
	}
	// Processors, blocks and channels past the configuration are guard
	// violations, not index panics.
	for _, as := range []string{"p9 read b0.w0", "p1 read b1.w0", "9>0", "0>3"} {
		bad.Actions = []string{as}
		v, err := Replay(bad)
		if err != nil || v == nil || v.Kind != walk.Internal {
			t.Errorf("action %q: violation %v, err %v; want an internal (guard) violation", as, v, err)
		}
	}
}

// FuzzReplayTrace is the trace decoder's fuzz target: ParseTrace and then
// Replay on arbitrary bytes must return, never panic. The seeds are the
// seeded faults' counterexamples.
func FuzzReplayTrace(f *testing.F) {
	for _, tc := range seededFaults {
		res, err := Explore(tc.config())
		if err != nil || len(res.Violations) == 0 {
			f.Fatalf("fault %s: no counterexample to seed with (err %v)", tc.name, err)
		}
		f.Add(res.Violations[0].Trace.JSON())
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if tr, err := ParseTrace(raw); err == nil {
			Replay(tr)
		}
	})
}

// TestTraceJSONRoundTrip pins the serialization format.
func TestTraceJSONRoundTrip(t *testing.T) {
	cfg := DefaultConfig(proto.WI)
	cfg.Faults.SkipInvAck = true
	cfg.Procs = 3
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatal("no violation to serialize")
	}
	raw := res.Violations[0].Trace.JSON()
	back, err := ParseTrace(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Actions) != len(res.Violations[0].Trace.Actions) {
		t.Fatalf("round trip lost actions: %d != %d", len(back.Actions), len(res.Violations[0].Trace.Actions))
	}
	rv, err := Replay(back)
	if err != nil {
		t.Fatal(err)
	}
	if rv == nil {
		t.Fatal("deserialized counterexample replays cleanly")
	}
	// A document without the envelope is refused, not read as version 1.
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	delete(doc, "schema")
	bare, _ := json.Marshal(doc)
	if _, err := ParseTrace(bare); err == nil || !strings.Contains(err.Error(), "unsupported trace schema 0") {
		t.Fatalf("trace without a schema field: err = %v, want the unsupported-schema error", err)
	}
}

// TestExploreMaxStates pins the explicit-abort behaviour: bounded
// exploration must fail loudly, never silently truncate.
func TestExploreMaxStates(t *testing.T) {
	cfg := DefaultConfig(proto.WI)
	cfg.MaxStates = 10
	if _, err := Explore(cfg); err == nil {
		t.Fatal("MaxStates=10 exploration succeeded; want explicit abort")
	}
}

// TestValidateRejects: Validate, which Explore and Trace.ConfigOf both
// call, refuses an op set that repeats a kind (its
// duplicate actions would inflate the transition count) or names an
// unknown one, and a negative MaxStates (which would read as unlimited).
func TestValidateRejects(t *testing.T) {
	for _, c := range []struct {
		edit func(*Config)
		want string
	}{
		{func(c *Config) { c.OpSet = []OpKind{OpRead, OpRead} }, "op kind read repeated"},
		{func(c *Config) { c.OpSet = []OpKind{OpFlush + 1} }, "unknown op kind OpKind(4)"},
		{func(c *Config) { c.MaxStates = -5 }, "max states -5 is negative"},
	} {
		cfg := DefaultConfig(proto.WI)
		c.edit(&cfg)
		if _, err := Explore(cfg); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Explore error %v, want %q", err, c.want)
		}
	}
}
