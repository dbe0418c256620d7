package machine

import (
	"reflect"
	"testing"

	"coherencesim/internal/proto"
	"coherencesim/internal/sim"
)

// reuseWorkload is a mixed workload exercising reads, writes, atomics,
// spins, and the machine allocator — enough surface that any state
// leaking across a Reset would perturb the result.
func reuseWorkload(m *Machine) Result {
	a := m.Alloc("data", 256, -1)
	flag := m.Alloc("flag", 4, 0)
	return m.RunProgram(seq(
		repeat(15,
			func(p *Proc, f *Frame) OpStatus { return p.FFetchAdd(a, 1) },
			func(p *Proc, f *Frame) OpStatus { return p.FRead(a + 64) },
			func(p *Proc, f *Frame) OpStatus { return p.FWrite(a+64, p.Ret()+uint32(p.ID())) },
			computeBy(func(p *Proc) sim.Time { return sim.Time(p.Rand().Intn(8)) }),
		),
		[]stage{
			func(p *Proc, f *Frame) OpStatus { return p.FFence() },
			func(p *Proc, f *Frame) OpStatus {
				if p.ID() != 0 {
					f.PC++ // spinners skip the publisher's fence
					return p.FSpinUntilEqual(flag, 1)
				}
				return p.FWrite(flag, 1)
			},
			func(p *Proc, f *Frame) OpStatus { return p.FFence() },
		},
	))
}

func sameResult(t *testing.T, label string, fresh, reused Result) {
	t.Helper()
	if fresh.Cycles != reused.Cycles || fresh.Misses != reused.Misses ||
		fresh.Updates != reused.Updates || fresh.Counters != reused.Counters ||
		fresh.Net != reused.Net || fresh.References != reused.References ||
		fresh.MissRate != reused.MissRate || fresh.SimEvents != reused.SimEvents {
		t.Fatalf("%s: reused machine diverged from fresh:\nfresh:  %+v\nreused: %+v",
			label, fresh, reused)
	}
	if !reflect.DeepEqual(fresh.PerProc, reused.PerProc) {
		t.Fatalf("%s: per-proc stats diverged", label)
	}
}

// TestResetRunIdentity pins the reuse contract: a Reset machine is
// indistinguishable from a fresh one, including across a protocol
// change between runs.
func TestResetRunIdentity(t *testing.T) {
	for _, pr := range allProtocols() {
		fresh := reuseWorkload(New(DefaultConfig(pr, 8)))

		// Dirty the machine with a different protocol first, then Reset
		// into the configuration under test.
		m := New(DefaultConfig(proto.PU, 8))
		reuseWorkload(m)
		if !m.Reset(DefaultConfig(pr, 8)) {
			t.Fatalf("%v: Reset refused a structurally identical config", pr)
		}
		sameResult(t, pr.String(), fresh, reuseWorkload(m))

		// A second reset cycle must be just as clean.
		if !m.Reset(DefaultConfig(pr, 8)) {
			t.Fatalf("%v: second Reset refused", pr)
		}
		sameResult(t, pr.String()+"/second", fresh, reuseWorkload(m))
	}
}

func TestResetStructuralGate(t *testing.T) {
	m := New(DefaultConfig(proto.WI, 4))
	reuseWorkload(m)
	for name, mut := range map[string]func(*Config){
		"procs":      func(c *Config) { c.Procs = 8 },
		"cachebytes": func(c *Config) { c.CacheBytes *= 2 },
		"wbentries":  func(c *Config) { c.WBEntries++ },
		"mesh":       func(c *Config) { c.Mesh.SwitchDelay++ },
		"mem":        func(c *Config) { c.Mem.FirstWord++ },
	} {
		cfg := DefaultConfig(proto.WI, 4)
		mut(&cfg)
		if m.Reset(cfg) {
			t.Errorf("Reset accepted incompatible %s change", name)
		}
	}
	// The machine must still be reusable after refused resets.
	if !m.Reset(DefaultConfig(proto.CU, 4)) {
		t.Fatal("Reset refused a compatible config after refusals")
	}
	reuseWorkload(m)
}

func TestResetClearsAllocations(t *testing.T) {
	m := New(DefaultConfig(proto.WI, 2))
	m.Alloc("x", 4, 0)
	if !m.Reset(DefaultConfig(proto.WI, 2)) {
		t.Fatal("Reset refused")
	}
	// The old name must be free again and the address space rewound.
	a := m.Alloc("x", 4, 1)
	if a != 0 {
		t.Fatalf("post-reset allocation at %d, want 0", a)
	}
	if m.sys.HomeOf(0) != 1 {
		t.Fatalf("post-reset home = %d, want 1", m.sys.HomeOf(0))
	}
}

// TestAcquireRecyclesMachine pins the pool path end to end: a released
// machine is handed back for a compatible config and produces the same
// result a fresh machine would.
func TestAcquireRecyclesMachine(t *testing.T) {
	fresh := reuseWorkload(New(DefaultConfig(proto.CU, 6)))

	m1 := Acquire(DefaultConfig(proto.WI, 6))
	reuseWorkload(m1)
	m1.Release()
	m2 := Acquire(DefaultConfig(proto.CU, 6))
	if m2 != m1 {
		t.Fatal("Acquire did not recycle the released machine")
	}
	sameResult(t, "pooled", fresh, reuseWorkload(m2))
	m2.Release()
}
