package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
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

// The free list itself, on shapes no configuration has (procs < 0) and
// machines that are never reset.
func testShape(n int) poolKey { return poolKey{procs: -1 - n} }

func TestPoolTakesMostRecentlyReleased(t *testing.T) {
	k := testShape(0)
	a, b := &Machine{}, &Machine{}
	put(k, a)
	put(k, b)
	if m := take(k); m != b {
		t.Fatal("take did not return the most recently released machine")
	}
	if m := take(k); m != a {
		t.Fatal("take did not return the earlier machine second")
	}
	if m := take(k); m != nil {
		t.Fatal("a drained shape returned a machine")
	}
}

func TestPoolShapesAreIndependent(t *testing.T) {
	a := &Machine{}
	put(testShape(1), a)
	if m := take(testShape(2)); m != nil {
		t.Fatal("a machine leaked across shapes")
	}
	if m := take(testShape(1)); m != a {
		t.Fatal("the released machine was lost")
	}
}

func TestPoolBoundsIdlePerShape(t *testing.T) {
	k := testShape(3)
	for i := 0; i <= idlePerShape; i++ {
		put(k, &Machine{}) // the last one is over the bound: dropped
	}
	n := 0
	for take(k) != nil {
		n++
	}
	if n != idlePerShape {
		t.Fatalf("pool held %d idle machines of one shape, bound is %d", n, idlePerShape)
	}
}

func TestPoolConcurrentAccess(t *testing.T) {
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(k poolKey) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if m := take(k); m != nil {
					put(k, m)
				} else {
					put(k, &Machine{})
				}
			}
		}(testShape(4 + w%3))
	}
	wg.Wait()
}

// randOp is one operation of a generated program.
type randOp struct {
	kind uint8 // 0 read, 1 write, 2 fetch-add, 3 fetch-store, 4 cas, 5 flush, 6 fence, 7 compute
	a    Addr
	v    uint32
}

// randProgram runs, per phase, each processor's generated operations
// and then a counting barrier that every processor spins on.
type randProgram struct {
	ops   [][][]randOp // phase -> processor -> operations
	bar   []Addr       // one counter per phase
	procs uint32
}

func (g *randProgram) Step(p *Proc, f *Frame) OpStatus {
	for {
		switch f.PC {
		case 0: // f.I1 is the phase, f.I0 the next operation
			ops := g.ops[f.I1][p.ID()]
			if f.I0 == len(ops) {
				f.PC = 1
				continue
			}
			o := ops[f.I0]
			f.I0++
			switch o.kind {
			case 0:
				return p.FRead(o.a)
			case 1:
				return p.FWrite(o.a, o.v)
			case 2:
				return p.FFetchAdd(o.a, o.v)
			case 3:
				return p.FFetchStore(o.a, o.v)
			case 4:
				return p.FCompareSwap(o.a, o.v, o.v+1)
			case 5:
				return p.FFlush(o.a)
			case 6:
				return p.FFence()
			default:
				if !p.FCompute(sim.Time(o.v)) {
					return OpBlocked
				}
			}
		case 1:
			f.PC = 2
			return p.FFetchAdd(g.bar[f.I1], 1)
		case 2:
			f.PC = 3
			return p.FSpinUntilEqual(g.bar[f.I1], g.procs)
		default:
			f.I0, f.PC = 0, 0
			if f.I1++; f.I1 == len(g.ops) {
				return OpDone
			}
		}
	}
}

// randWorkload allocates randomly sized regions on m (one of them past
// the 64 KB cache when large, swept whole by one processor so frames
// wrap, evict and fill), pokes initial values, and runs a seeded random
// program over them.
func randWorkload(m *Machine, seed int64, large bool) Result {
	rng := rand.New(rand.NewSource(seed))
	procs := m.Procs()
	var regions []Addr
	var sizes []int
	for i, n := 0, 1+rng.Intn(4); i < n; i++ {
		size := 4 * (1 + rng.Intn(64))
		if large && i == 0 {
			size = 64*1024 + 4*rng.Intn(8192)
		}
		regions = append(regions, m.Alloc(fmt.Sprintf("r%d", i), size, rng.Intn(procs+1)-1))
		sizes = append(sizes, size)
	}
	g := &randProgram{procs: uint32(procs)}
	phases := 2
	for ph := 0; ph < phases; ph++ {
		g.bar = append(g.bar, m.Alloc(fmt.Sprintf("bar%d", ph), 4, ph%procs))
	}
	addr := func() Addr {
		r := rng.Intn(len(regions))
		return regions[r] + Addr(4*rng.Intn(sizes[r]/4))
	}
	for i := 0; i < 8; i++ {
		m.Poke(addr(), rng.Uint32())
	}
	nops := 40
	if large {
		nops = 150
	}
	g.ops = make([][][]randOp, phases)
	for ph := range g.ops {
		g.ops[ph] = make([][]randOp, procs)
		for p := range g.ops[ph] {
			ops := make([]randOp, nops)
			for i := range ops {
				ops[i] = randOp{kind: uint8(rng.Intn(8)), a: addr(), v: uint32(rng.Intn(16))}
			}
			g.ops[ph][p] = ops
		}
	}
	if large {
		// One processor reads every block of the large region, so its
		// cache reaches every frame and wraps past the geometry.
		p := rng.Intn(procs)
		for a := regions[0]; a < regions[0]+Addr(sizes[0]); a += 64 {
			g.ops[0][p] = append(g.ops[0][p], randOp{kind: 0, a: a})
		}
	}
	return m.RunProgram(g)
}

// TestResetMatchesFreshRandom is the reuse contract under generated
// programs: one machine, reset between runs that alternate large
// (frames wrap and fill) and small footprints across all three
// protocols, returns exactly what a machine fresh from New returns.
func TestResetMatchesFreshRandom(t *testing.T) {
	const procs = 8
	m := New(DefaultConfig(proto.WI, procs))
	for i := 0; i < 18; i++ {
		pr := allProtocols()[i%3]
		large := i%2 == 0
		seed := int64(1000 + i)
		cfg := DefaultConfig(pr, procs)
		if i > 0 && !m.Reset(cfg) {
			t.Fatalf("run %d: Reset refused", i)
		}
		label := fmt.Sprintf("run %d %v large=%v", i, pr, large)
		sameResult(t, label, randWorkload(New(cfg), seed, large), randWorkload(m, seed, large))
	}
}

// TestFreshMachineHeap pins that a 32-processor machine holds no cache
// frames or event slots before a run uses them — 26 144 bytes measured,
// the bound is twice that — and that resetting an untouched machine
// neither grows a cache nor allocates.
func TestFreshMachineHeap(t *testing.T) {
	cfg := DefaultConfig(proto.PU, 32)
	var m *Machine
	if b := bytesPerRun(1, func() { m = New(cfg) }); b >= 2*26144 {
		t.Errorf("a fresh 32-processor machine allocates %.0f bytes, want < %d", b, 2*26144)
	}
	if a := testing.AllocsPerRun(10, func() { m.Reset(cfg) }); a != 0 {
		t.Errorf("resetting an untouched machine allocates %.1f objects, want 0", a)
	}
	for i := 0; i < cfg.Procs; i++ {
		if c := m.System().Cache(i); c.Lookup(0) != nil || c.Present(1) {
			t.Fatalf("cache %d holds a line after Reset", i)
		}
	}
}
