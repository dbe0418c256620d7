package machine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"coherencesim/internal/metrics"
	"coherencesim/internal/proto"
	"coherencesim/internal/trace"
)

// TestRunProgramContinuationExtendsRun checks the multi-phase contract:
// a second RunProgram continues the same simulation (clock and event
// numbering advance monotonically, stats accumulate).
func TestRunProgramContinuationExtendsRun(t *testing.T) {
	m, g := buildEqv(t, proto.WI, 4)
	r1 := m.RunProgram(g)
	m2, g2 := buildEqv(t, proto.WI, 4)
	// Reset the flag so phase 2's spin terminates.
	m2.RunProgram(g2)
	m2.Poke(g2.flag, 0)
	r2 := m2.RunProgram(g2)
	if r2.Cycles <= r1.Cycles {
		t.Errorf("continuation did not advance the clock: %d then %d", r1.Cycles, r2.Cycles)
	}
	if r2.SimEvents <= r1.SimEvents {
		t.Errorf("continuation did not extend event numbering: %d then %d", r1.SimEvents, r2.SimEvents)
	}
	if r2.PerProc[0].Busy <= r1.PerProc[0].Busy {
		t.Errorf("continuation did not accumulate stats: busy %d then %d", r1.PerProc[0].Busy, r2.PerProc[0].Busy)
	}
}

// TestSnapshotForkMatchesContinuation is the machine-level fork
// equality check: snapshot after phase 1, restore onto a freshly built
// twin, run phase 2 there, and compare with the original machine
// running phase 2 itself.
func TestSnapshotForkMatchesContinuation(t *testing.T) {
	for _, protocol := range []proto.Protocol{proto.WI, proto.PU, proto.CU} {
		t.Run(protocol.String(), func(t *testing.T) {
			src, g := buildEqv(t, protocol, 8)
			src.RunProgram(g)
			snap := src.Snapshot()
			src.Poke(g.flag, 0)
			want := src.RunProgram(g)

			dst, g2 := buildEqv(t, protocol, 8)
			dst.RestoreFrom(snap)
			dst.Poke(g2.flag, 0)
			got := dst.RunProgram(g2)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("forked phase 2 differs\ncontinued: %+v\nforked:    %+v", want, got)
			}
		})
	}
}

// TestSnapshotGuards covers the misuse panics: snapshotting before any
// run, restoring onto a machine that already ran or was built
// differently, and forking with any observer attached to the snapshot
// source or the restore target. Each panic must say what it refused.
// The same fork with no observer attached is
// TestSnapshotForkMatchesContinuation, on every protocol.
func TestSnapshotGuards(t *testing.T) {
	expectPanic := func(t *testing.T, want string, f func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("did not panic; want a panic naming %q", want)
			}
			if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
				t.Fatalf("panic %q does not name %q", msg, want)
			}
		}()
		f()
	}
	warmSnapshot := func(cfg Config) *Snapshot {
		src, g := buildEqvOn(cfg)
		src.RunProgram(g)
		return src.Snapshot()
	}

	t.Run("misuse", func(t *testing.T) {
		m, _ := buildEqv(t, proto.WI, 2)
		expectPanic(t, "before any run", func() { m.Snapshot() })

		snap := warmSnapshot(DefaultConfig(proto.WI, 2))
		dst, g := buildEqv(t, proto.WI, 2)
		dst.RunProgram(g)
		expectPanic(t, "already ran", func() { dst.RestoreFrom(snap) })

		mismatched := New(DefaultConfig(proto.WI, 2))
		mismatched.Alloc("other", 4, 0)
		expectPanic(t, "allocation table mismatch", func() { mismatched.RestoreFrom(snap) })
	})

	observers := []struct {
		name   string
		attach func(*Config)
	}{
		{"Metrics", func(c *Config) { c.Metrics = metrics.New(100) }},
		{"Timeline", func(c *Config) { c.Timeline = metrics.NewTimeline() }},
		{"Txn", func(c *Config) { c.Txn = trace.NewTracer(c.Procs, 0) }},
		{"Trace", func(c *Config) { c.Trace = trace.NewLog(64) }},
	}
	for _, protocol := range []proto.Protocol{proto.WI, proto.PU, proto.CU} {
		plain := DefaultConfig(protocol, 2)
		for _, o := range observers {
			observed := plain
			o.attach(&observed)
			want := "Config." + o.name
			t.Run(protocol.String()+"/source/"+o.name, func(t *testing.T) {
				src, g := buildEqvOn(observed)
				src.RunProgram(g)
				expectPanic(t, want, func() { src.Snapshot() })
			})
			t.Run(protocol.String()+"/target/"+o.name, func(t *testing.T) {
				snap := warmSnapshot(plain)
				dst, _ := buildEqvOn(observed)
				expectPanic(t, want, func() { dst.RestoreFrom(snap) })
			})
		}
	}
}
