package machine

import (
	"reflect"
	"testing"

	"coherencesim/internal/proto"
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
// run, and restoring onto a machine that already ran or was built
// differently.
func TestSnapshotGuards(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	m, _ := buildEqv(t, proto.WI, 2)
	expectPanic("Snapshot before run", func() { m.Snapshot() })

	src, g := buildEqv(t, proto.WI, 2)
	src.RunProgram(g)
	snap := src.Snapshot()
	dst, g2 := buildEqv(t, proto.WI, 2)
	dst.RunProgram(g2)
	expectPanic("RestoreFrom after run", func() { dst.RestoreFrom(snap) })

	mismatched := New(DefaultConfig(proto.WI, 2))
	mismatched.Alloc("other", 4, 0)
	expectPanic("RestoreFrom with mismatched allocations", func() { mismatched.RestoreFrom(snap) })
}
