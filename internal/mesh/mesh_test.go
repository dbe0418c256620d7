package mesh

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"coherencesim/internal/metrics"
	"coherencesim/internal/sim"
)

func TestGridDimensions(t *testing.T) {
	cases := []struct{ n, w int }{
		{1, 1}, {2, 2}, {4, 2}, {8, 3}, {16, 4}, {32, 6}, {64, 8},
	}
	for _, c := range cases {
		nw := New(sim.NewEngine(), c.n, DefaultConfig())
		if nw.w != c.w {
			t.Errorf("n=%d: width %d, want %d", c.n, nw.w, c.w)
		}
	}
}

func TestHopsSymmetricAndZeroOnSelf(t *testing.T) {
	nw := New(sim.NewEngine(), 32, DefaultConfig())
	for s := 0; s < 32; s++ {
		if nw.Hops(s, s) != 0 {
			t.Fatalf("Hops(%d,%d) = %d, want 0", s, s, nw.Hops(s, s))
		}
		for d := 0; d < 32; d++ {
			if nw.Hops(s, d) != nw.Hops(d, s) {
				t.Fatalf("asymmetric hops %d<->%d", s, d)
			}
		}
	}
}

func TestHopsManhattan(t *testing.T) {
	nw := New(sim.NewEngine(), 16, DefaultConfig()) // 4x4
	// node 0 = (0,0), node 15 = (3,3): distance 6, +1 injection switch.
	if got := nw.Hops(0, 15); got != 7 {
		t.Fatalf("Hops(0,15) = %d, want 7", got)
	}
	// adjacent nodes: 1 + 1
	if got := nw.Hops(0, 1); got != 2 {
		t.Fatalf("Hops(0,1) = %d, want 2", got)
	}
}

// The hop table New builds equals the Manhattan distance between the grid
// coordinates plus the injection switch, for every pair, on square and
// ragged grids; the largest mesh allowed still fits the table's entries.
func TestHopTableMatchesCoordinates(t *testing.T) {
	for _, n := range []int{1, 2, 7, 8, 32, 64, 200} {
		nw := New(sim.NewEngine(), n, DefaultConfig())
		for s := 0; s < n; s++ {
			sx, sy := s%nw.w, s/nw.w
			for d := 0; d < n; d++ {
				dx, dy := d%nw.w, d/nw.w
				want := 0
				if s != d {
					want = abs(sx-dx) + abs(sy-dy) + 1
				}
				if got := nw.Hops(s, d); got != want {
					t.Fatalf("n=%d: Hops(%d,%d) = %d, want %d", n, s, d, got, want)
				}
			}
		}
	}
	if got := New(sim.NewEngine(), maxNodes, DefaultConfig()).Hops(0, maxNodes-1); got != 127 {
		t.Fatalf("corner to corner of the largest mesh: %d hops, want 127", got)
	}
}

func TestFlitCount(t *testing.T) {
	nw := New(sim.NewEngine(), 4, DefaultConfig())
	cases := []struct{ bytes, flits int }{
		{0, 1}, {1, 1}, {2, 1}, {3, 2}, {8, 4}, {72, 36},
	}
	for _, c := range cases {
		if got := nw.Flits(c.bytes); got != c.flits {
			t.Errorf("Flits(%d) = %d, want %d", c.bytes, got, c.flits)
		}
	}
}

func TestUncontendedLatency(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 16, DefaultConfig())
	var arrived sim.Time
	// 8-byte control message node 0 -> node 1: 4 flits, 2 hops.
	// latency = hops*switch + flits = 2*2 + 4 = 8.
	nw.Send(0, 1, 8, func() { arrived = e.Now() })
	e.Run()
	if arrived != 8 {
		t.Fatalf("arrival at %d, want 8", arrived)
	}
}

func TestLoopbackDelivery(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 4, DefaultConfig())
	var arrived sim.Time
	nw.Send(2, 2, 72, func() { arrived = e.Now() })
	e.Run()
	if arrived != DefaultConfig().LocalDelay {
		t.Fatalf("loopback arrival at %d, want %d", arrived, DefaultConfig().LocalDelay)
	}
	if nw.Stats().Messages != 0 || nw.Stats().Loopback != 1 {
		t.Fatalf("stats = %+v, want loopback only", nw.Stats())
	}
}

func TestSourceSerialization(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 16, DefaultConfig())
	var first, second sim.Time
	// Two back-to-back 8-byte messages from node 0 to different columns.
	// The second's flits cannot start until the first's 4 flits drain.
	nw.Send(0, 1, 8, func() { first = e.Now() })
	nw.Send(0, 2, 8, func() { second = e.Now() })
	e.Run()
	if first != 8 {
		t.Fatalf("first arrival %d, want 8", first)
	}
	// second: starts at 4, 3 hops -> head at 4+6=10, +4 flits = 14.
	if second != 14 {
		t.Fatalf("second arrival %d, want 14", second)
	}
}

func TestDestinationSerialization(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 16, DefaultConfig())
	var a, b sim.Time
	// Node 1 and node 2 both send 8B to node 0 at t=0.
	// msg from 1: head 0+2*2=4, done 8. msg from 2: head 0+3*2=6, but input
	// NI busy until 8 -> done 12.
	nw.Send(1, 0, 8, func() { a = e.Now() })
	nw.Send(2, 0, 8, func() { b = e.Now() })
	e.Run()
	if a != 8 || b != 12 {
		t.Fatalf("arrivals a=%d b=%d, want 8, 12", a, b)
	}
}

func TestStatsAccumulate(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 16, DefaultConfig())
	nw.Send(0, 1, 8, func() {})
	nw.Send(0, 15, 72, func() {})
	e.Run()
	st := nw.Stats()
	if st.Messages != 2 {
		t.Errorf("Messages = %d, want 2", st.Messages)
	}
	if st.Flits != 4+36 {
		t.Errorf("Flits = %d, want 40", st.Flits)
	}
	if st.HopSum != 2+7 {
		t.Errorf("HopSum = %d, want 9", st.HopSum)
	}
}

func TestInvalidConstruction(t *testing.T) {
	for _, f := range []func(){
		func() { New(sim.NewEngine(), 0, DefaultConfig()) },
		func() { New(sim.NewEngine(), maxNodes+1, DefaultConfig()) },
		func() { New(sim.NewEngine(), 4, Config{FlitBytes: 0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: delivery time is always >= send time + hops*switch + flits,
// and messages between the same pair preserve FIFO order.
func TestPropertyLatencyLowerBoundAndFIFO(t *testing.T) {
	f := func(sizes []uint8, srcRaw, dstRaw uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 20 {
			sizes = sizes[:20]
		}
		e := sim.NewEngine()
		nw := New(e, 32, DefaultConfig())
		src := int(srcRaw) % 32
		dst := int(dstRaw) % 32
		if src == dst {
			dst = (dst + 1) % 32
		}
		arrivals := make([]sim.Time, 0, len(sizes))
		lower := make([]sim.Time, 0, len(sizes))
		for _, sz := range sizes {
			bytes := int(sz)
			lb := sim.Time(nw.Hops(src, dst))*2 + sim.Time(nw.Flits(bytes))
			lower = append(lower, lb)
			nw.Send(src, dst, bytes, func() { arrivals = append(arrivals, e.Now()) })
		}
		e.Run()
		if len(arrivals) != len(sizes) {
			return false
		}
		for i, at := range arrivals {
			if at < lower[i] {
				return false
			}
			if i > 0 && at <= arrivals[i-1] {
				return false // FIFO between same pair, strictly increasing
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: messages between the same (src, dst) pair are delivered in
// send order even when interleaved with traffic to and from other nodes
// — the FIFO guarantee the coherence protocol's grant-before-release
// booking discipline relies on.
func TestPropertySamePairFIFOUnderCrossTraffic(t *testing.T) {
	f := func(sizes []uint8, noise []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 15 {
			sizes = sizes[:15]
		}
		e := sim.NewEngine()
		nw := New(e, 16, DefaultConfig())
		var order []int
		for i, sz := range sizes {
			i := i
			nw.Send(3, 12, int(sz), func() { order = append(order, i) })
			// Interleave unrelated traffic touching both endpoints.
			if i < len(noise) {
				nw.Send(3, int(noise[i])%16, 8, func() {})
				nw.Send(int(noise[i])%16, 12, 8, func() {})
			}
		}
		e.Run()
		if len(order) != len(sizes) {
			return false
		}
		for i, got := range order {
			if got != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeFlits(t *testing.T) {
	e := sim.NewEngine()
	nw := New(e, 16, DefaultConfig())
	nw.Send(0, 5, 8, func() {})  // 4 flits
	nw.Send(0, 5, 72, func() {}) // 36 flits
	nw.Send(3, 0, 8, func() {})  // 4 flits into node 0
	nw.Send(2, 2, 72, func() {}) // loopback: not counted
	e.Run()
	out0, in0 := nw.NodeFlits(0)
	if out0 != 40 || in0 != 4 {
		t.Fatalf("node 0 flits out=%d in=%d, want 40, 4", out0, in0)
	}
	out5, in5 := nw.NodeFlits(5)
	if out5 != 0 || in5 != 40 {
		t.Fatalf("node 5 flits out=%d in=%d, want 0, 40", out5, in5)
	}
	if o, i := nw.NodeFlits(2); o != 0 || i != 0 {
		t.Fatalf("loopback counted: %d %d", o, i)
	}
}

// Book followed by Engine.At is Send: over random traffic — loopbacks,
// repeated destinations, bursts at one instant — both deliver every
// message at the same time and leave the same Stats, per-node flit
// counts and sampled counter series.
func TestBookThenAtEqualsSend(t *testing.T) {
	type op struct {
		at              sim.Time
		src, dst, bytes int
	}
	const nodes = 16
	sizes := []int{8, 16, 72, 0, 3}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]op, 200)
		now := sim.Time(0)
		for i := range ops {
			now += sim.Time(rng.Intn(4)) // 0: a burst at one instant
			ops[i] = op{now, rng.Intn(nodes), rng.Intn(nodes), sizes[rng.Intn(len(sizes))]}
			if rng.Intn(3) == 0 {
				ops[i].dst = 5 // a hot destination interface
			}
		}
		run := func(book bool) ([]sim.Time, *Network, *metrics.Snapshot) {
			e := sim.NewEngine()
			nw := New(e, nodes, DefaultConfig())
			reg := metrics.New(64)
			nw.Instrument(reg.Counter("net.msgs"), reg.Counter("net.flits"))
			promised := make([]sim.Time, len(ops))
			delivered := make([]sim.Time, len(ops))
			for i, o := range ops {
				i, o := i, o
				deliver := func() { delivered[i] = e.Now() }
				e.At(o.at, func() {
					if book && o.src != o.dst {
						promised[i] = nw.Book(o.src, o.dst, o.bytes)
						e.At(promised[i], deliver)
					} else {
						promised[i] = nw.Send(o.src, o.dst, o.bytes, deliver)
					}
				})
			}
			e.Run()
			for i := range ops {
				if promised[i] != delivered[i] {
					t.Fatalf("seed %d op %d: returned time %d, delivered at %d", seed, i, promised[i], delivered[i])
				}
			}
			return delivered, nw, reg.Snapshot(e.Now())
		}
		sent, a, seriesA := run(false)
		booked, b, seriesB := run(true)
		if !reflect.DeepEqual(sent, booked) {
			t.Fatalf("seed %d: delivery times differ\nSend    %v\nBook+At %v", seed, sent, booked)
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("seed %d: Stats %+v (Send) vs %+v (Book+At)", seed, a.Stats(), b.Stats())
		}
		for n := 0; n < nodes; n++ {
			ao, ai := a.NodeFlits(n)
			bo, bi := b.NodeFlits(n)
			if ao != bo || ai != bi {
				t.Fatalf("seed %d node %d: flits out/in %d/%d (Send) vs %d/%d (Book+At)", seed, n, ao, ai, bo, bi)
			}
		}
		if !reflect.DeepEqual(seriesA, seriesB) {
			t.Fatalf("seed %d: sampled counters differ:\n%+v\n%+v", seed, seriesA, seriesB)
		}
	}
}

// Flits shifts for a power-of-two datapath and divides otherwise; both
// bodies are ceil(bytes/width) with a floor of one flit.
func TestFlitsShiftAndDivideAgree(t *testing.T) {
	for _, width := range []int{1, 2, 3, 4, 6, 8, 16} {
		cfg := DefaultConfig()
		cfg.FlitBytes = width
		nw := New(sim.NewEngine(), 4, cfg)
		if pow2 := width&(width-1) == 0; (nw.flitShift >= 0) != pow2 {
			t.Fatalf("width %d: flitShift %d", width, nw.flitShift)
		}
		for bytes := -3; bytes <= 200; bytes++ {
			want := (bytes + width - 1) / width
			if want < 1 {
				want = 1
			}
			if got := nw.Flits(bytes); got != want {
				t.Fatalf("width %d: Flits(%d) = %d, want %d", width, bytes, got, want)
			}
		}
	}
}
