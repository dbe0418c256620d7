package machine

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"coherencesim/internal/metrics"
	"coherencesim/internal/proto"
	"coherencesim/internal/sim"
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

// forkPhase2 restores snap onto a machine built by buildEqvOn(cfg) and
// runs phase 2 there, as the source's continuation does.
func forkPhase2(cfg Config, snap *Snapshot) Result {
	dst, g := buildEqvOn(cfg)
	dst.RestoreFrom(snap)
	dst.Poke(g.flag, 0)
	return dst.RunProgram(g)
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

			if got := forkPhase2(DefaultConfig(protocol, 8), snap); !reflect.DeepEqual(want, got) {
				t.Errorf("forked phase 2 differs\ncontinued: %+v\nforked:    %+v", want, got)
			}
		})
	}
}

// TestSnapshotGuards covers the misuse panics — snapshotting before any
// run, restoring onto a machine that already ran or was built
// differently — and forks under every observer. A replayed prefix runs
// under the target's observers, so for each observer × protocol an
// observed fork records exactly what an observed continuation records:
// the Result with its Metrics and Breakdown, the timeline slices and
// the op-log records. The source rows snapshot an observed machine and
// continue it; the target rows snapshot an unobserved one and continue
// a twin observed from the start.
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

	t.Run("misuse", func(t *testing.T) {
		m, _ := buildEqv(t, proto.WI, 2)
		expectPanic(t, "before any run", func() { m.Snapshot() })

		src, g := buildEqv(t, proto.WI, 2)
		src.RunProgram(g)
		snap := src.Snapshot()
		dst, g := buildEqv(t, proto.WI, 2)
		dst.RunProgram(g)
		expectPanic(t, "already ran", func() { dst.RestoreFrom(snap) })

		mismatched := New(DefaultConfig(proto.WI, 2))
		mismatched.Alloc("other", 4, 0)
		expectPanic(t, "allocation table mismatch", func() { mismatched.RestoreFrom(snap) })

		// A construct belongs to the machine it was built on; Reset
		// forgets it.
		cfg := DefaultConfig(proto.WI, 2)
		withLock := New(cfg)
		withLock.NewMagicLock()
		withLock.RunProgram(Steps{compute(1)})
		expectPanic(t, `construct "magic lock"`, func() { withLock.Snapshot() })
		withLock.Reset(cfg)
		withLock.RunProgram(Steps{compute(1)})
		withLock.Snapshot()
	})

	// Each observer attaches a fresh instance to a configuration and
	// returns what it recorded once the run is over.
	observers := []struct {
		name   string
		attach func(*Config) func(Result) any
	}{
		{"Metrics", func(c *Config) func(Result) any {
			c.Metrics = metrics.New(100)
			return func(r Result) any { return r.Metrics }
		}},
		{"Timeline", func(c *Config) func(Result) any {
			tl := metrics.NewTimeline()
			c.Timeline = tl
			return func(Result) any { return tl.Slices() }
		}},
		{"Txn", func(c *Config) func(Result) any {
			c.Txn = trace.NewTracer(c.Procs, 0)
			return func(r Result) any { return r.Breakdown }
		}},
		{"Trace", func(c *Config) func(Result) any {
			log := trace.NewLog(1 << 12)
			c.Trace = log
			return func(Result) any { return log.Events() }
		}},
	}
	for _, protocol := range []proto.Protocol{proto.WI, proto.PU, proto.CU} {
		for _, o := range observers {
			observed := func() (Config, func(Result) any) {
				cfg := DefaultConfig(protocol, 2)
				return cfg, o.attach(&cfg)
			}
			check := func(t *testing.T, snap *Snapshot, want Result, wantRec any) {
				t.Helper()
				cfg, rec := observed()
				got := forkPhase2(cfg, snap)
				gotRec := rec(got)
				if v := reflect.ValueOf(wantRec); v.IsZero() || (v.Kind() == reflect.Slice && v.Len() == 0) {
					t.Fatalf("the observed continuation recorded nothing: %+v", wantRec)
				}
				if !reflect.DeepEqual(want, got) {
					t.Errorf("observed fork's result differs\ncontinued: %+v\nforked:    %+v", want, got)
				}
				if !reflect.DeepEqual(wantRec, gotRec) {
					t.Errorf("observed fork recorded differently\ncontinued: %+v\nforked:    %+v", wantRec, gotRec)
				}
			}
			t.Run(protocol.String()+"/source/"+o.name, func(t *testing.T) {
				cfg, rec := observed()
				src, g := buildEqvOn(cfg)
				src.RunProgram(g)
				snap := src.Snapshot()
				src.Poke(g.flag, 0)
				want := src.RunProgram(g)
				check(t, snap, want, rec(want))
			})
			t.Run(protocol.String()+"/target/"+o.name, func(t *testing.T) {
				src, g := buildEqv(t, protocol, 2)
				src.RunProgram(g)
				snap := src.Snapshot()
				cfg, rec := observed()
				cont, g := buildEqvOn(cfg)
				cont.RunProgram(g)
				cont.Poke(g.flag, 0)
				want := cont.RunProgram(g)
				check(t, snap, want, rec(want))
			})
		}
	}
}

// TestSnapshotReplaysPokes pokes between phases and again after the last
// one, then snapshots: the fork replays both Pokes in order without the
// caller repeating them, so it matches the continuation.
func TestSnapshotReplaysPokes(t *testing.T) {
	for _, protocol := range []proto.Protocol{proto.WI, proto.PU, proto.CU} {
		src, g := buildEqv(t, protocol, 4)
		src.RunProgram(g)
		src.Poke(g.flag, 0)
		src.RunProgram(g)
		src.Poke(g.flag, 0)
		src.Poke(g.data, 7)
		snap := src.Snapshot()
		want := src.RunProgram(g)

		dst, g := buildEqv(t, protocol, 4)
		dst.RestoreFrom(snap)
		if got := dst.RunProgram(g); !reflect.DeepEqual(want, got) {
			t.Errorf("%v: fork of a poked prefix differs\ncontinued: %+v\nforked:    %+v", protocol, want, got)
		}
	}
}

// drawingPhase is a program whose every processor draws from its random
// stream: eight fetch-and-adds, each followed by a random compute.
func drawingPhase(ctr Addr) Program {
	return seq(repeat(8,
		func(p *Proc, f *Frame) OpStatus { return p.FFetchAdd(ctr, 1) },
		computeBy(func(p *Proc) sim.Time { return sim.Time(p.Rand().Intn(16)) }),
	))
}

// TestSnapshotForkReplaysRandomStreams forks a drawing program between
// pooled machines whose previous runs also drew: the reset reseeds both
// streams, and the replayed prefix advances the target's exactly as far
// as the source's, so phase 2 draws the same numbers on both.
func TestSnapshotForkReplaysRandomStreams(t *testing.T) {
	cfg := DefaultConfig(proto.CU, 5)
	a, b := Acquire(cfg), Acquire(cfg)
	for _, m := range []*Machine{a, b} {
		m.RunProgram(drawingPhase(m.Alloc("junk", 4, 1)))
	}
	a.Release()
	b.Release()

	src := Acquire(cfg)
	prog := drawingPhase(src.Alloc("ctr", 4, 0))
	src.RunProgram(prog)
	snap := src.Snapshot()
	want := src.RunProgram(prog)
	if !src.procs[0].rngUsed {
		t.Fatal("the program drew nothing; the test no longer covers the random streams")
	}
	dst := Acquire(cfg)
	if (src != a && src != b) || (dst != a && dst != b) {
		t.Fatal("Acquire did not hand back the machines whose previous runs drew")
	}
	dst.Alloc("ctr", 4, 0)
	dst.RestoreFrom(snap)
	got := dst.RunProgram(prog)
	src.Release()
	dst.Release()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("forked drawing phase differs\ncontinued: %+v\nforked:    %+v", want, got)
	}
}

// TestSnapshotOutlivesSourceReuse takes a snapshot, releases its source
// to the pool, and lets the pool reset the machine and run something
// else on it before the fork: the snapshot owns its program list, so
// the fork still matches a continuation.
func TestSnapshotOutlivesSourceReuse(t *testing.T) {
	cfg := DefaultConfig(proto.PU, 8)
	src := Acquire(cfg)
	src.RunProgram(allocEqv(src))
	snap := src.Snapshot()
	src.Release()

	reused := Acquire(cfg)
	if reused != src {
		t.Fatal("Acquire did not hand back the snapshot's source")
	}
	reuseWorkload(reused)
	reused.Release()

	cont, g := buildEqvOn(cfg)
	cont.RunProgram(g)
	cont.Poke(g.flag, 0)
	want := cont.RunProgram(g)
	if got := forkPhase2(cfg, snap); !reflect.DeepEqual(want, got) {
		t.Errorf("fork from a reused source's snapshot differs\ncontinued: %+v\nforked:    %+v", want, got)
	}
}

// TestSnapshotConcurrentForks replays one snapshot from eight goroutines
// at once, each on a machine of its own from the pool: the snapshot and
// the programs it records are only read, so every fork matches the
// continuation (run it under -race).
func TestSnapshotConcurrentForks(t *testing.T) {
	cfg := DefaultConfig(proto.CU, 8)
	src, g := buildEqvOn(cfg)
	src.RunProgram(g)
	snap := src.Snapshot()
	src.Poke(g.flag, 0)
	want := src.RunProgram(g)

	const forks = 8
	got := make([]Result, forks)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := Acquire(cfg)
			defer m.Release()
			g := allocEqv(m)
			m.RestoreFrom(snap)
			m.Poke(g.flag, 0)
			got[i] = m.RunProgram(g)
		}()
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(want, got[i]) {
			t.Errorf("fork %d differs\ncontinued: %+v\nforked:    %+v", i, want, got[i])
		}
	}
}
