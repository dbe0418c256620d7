package mem

import (
	"testing"
	"testing/quick"

	"coherencesim/internal/sim"
)

// newModule builds a module over a private arena (machines share one
// Store across their modules).
func newModule(e *sim.Engine) *Module {
	cfg := DefaultConfig()
	return NewModuleWithStore(e, 0, cfg, NewStore(cfg.WordsBlock))
}

// readBlock issues a block read into a fresh buffer and hands it to done
// at completion.
func readBlock(m *Module, block uint32, done func(data []uint32)) {
	buf := make([]uint32, m.cfg.WordsBlock)
	m.ReadBlockInto(block, buf, func() { done(buf) })
}

func TestBlockReadLatency(t *testing.T) {
	e := sim.NewEngine()
	m := newModule(e)
	var done sim.Time
	readBlock(m, 1, func([]uint32) { done = e.Now() })
	e.Run()
	// DirLookup(4) + FirstWord(20) + 15 more words = 39.
	if done != 39 {
		t.Fatalf("block read completed at %d, want 39", done)
	}
}

func TestContentionSerializesRequests(t *testing.T) {
	e := sim.NewEngine()
	m := newModule(e)
	var first, second sim.Time
	readBlock(m, 1, func([]uint32) { first = e.Now() })
	readBlock(m, 2, func([]uint32) { second = e.Now() })
	e.Run()
	if first != 39 || second != 78 {
		t.Fatalf("completions %d, %d; want 39, 78", first, second)
	}
}

func TestWriteWordLatencyAndValue(t *testing.T) {
	e := sim.NewEngine()
	m := newModule(e)
	var done sim.Time
	m.WriteWord(5, 3, 0xdead, func() { done = e.Now() })
	e.Run()
	if done != 24 { // 4 + 20
		t.Fatalf("word write completed at %d, want 24", done)
	}
	if m.Peek(5, 3) != 0xdead {
		t.Fatalf("Peek = %#x, want 0xdead", m.Peek(5, 3))
	}
}

func TestReadBlockSnapshotsData(t *testing.T) {
	e := sim.NewEngine()
	m := newModule(e)
	m.Poke(7, 0, 111)
	var got []uint32
	readBlock(m, 7, func(d []uint32) { got = d })
	// Mutate after the read was issued: the reply must carry the value at
	// issue time (the module copies at reservation).
	m.Poke(7, 0, 222)
	e.Run()
	if got[0] != 111 {
		t.Fatalf("read returned %d, want snapshot 111", got[0])
	}
}

func TestAtomicReadModifyWrite(t *testing.T) {
	e := sim.NewEngine()
	m := newModule(e)
	m.Poke(2, 0, 10)
	var done sim.Time
	old, newV := m.AtomicOp(2, 0, func(o uint32) uint32 { return o + 5 }, func() { done = e.Now() })
	e.Run()
	if done != 24 { // 4 + 20
		t.Fatalf("atomic completed at %d, want 24", done)
	}
	if old != 10 || newV != 15 || m.Peek(2, 0) != 15 {
		t.Fatalf("atomic: old=%d new=%d mem=%d", old, newV, m.Peek(2, 0))
	}
}

func TestWriteBlockStoresAll(t *testing.T) {
	e := sim.NewEngine()
	m := newModule(e)
	data := make([]uint32, 16)
	for i := range data {
		data[i] = uint32(i * 3)
	}
	fired := false
	m.WriteBlock(9, data, func() { fired = true })
	e.Run()
	if !fired {
		t.Fatal("completion callback did not fire")
	}
	for i := range data {
		if m.Peek(9, i) != uint32(i*3) {
			t.Fatalf("word %d = %d", i, m.Peek(9, i))
		}
	}
}

func TestLazyZeroInitialization(t *testing.T) {
	m := newModule(sim.NewEngine())
	for w := 0; w < 16; w++ {
		if m.Peek(12345, w) != 0 {
			t.Fatalf("uninitialized word %d nonzero", w)
		}
	}
}

func TestWordRangeChecked(t *testing.T) {
	m := newModule(sim.NewEngine())
	defer func() {
		if recover() == nil {
			t.Error("out-of-range word did not panic")
		}
	}()
	m.Peek(0, 16)
}

func TestStatsCounting(t *testing.T) {
	e := sim.NewEngine()
	m := newModule(e)
	readBlock(m, 0, func([]uint32) {})
	m.WriteWord(0, 0, 1, nil)
	m.AtomicOp(0, 1, func(o uint32) uint32 { return o }, nil)
	m.WriteBlock(1, make([]uint32, 16), nil)
	e.Run()
	st := m.Stats()
	if st.BlockReads != 1 || st.WordWrites != 1 || st.AtomicOps != 1 || st.BlockWrites != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BusyCycles == 0 {
		t.Fatal("BusyCycles not accumulated")
	}
}

// Property: completion times of a FIFO of requests are strictly increasing
// and each request's completion >= its own service time.
func TestPropertyFIFOServiceOrder(t *testing.T) {
	f := func(kinds []bool) bool {
		if len(kinds) == 0 {
			return true
		}
		if len(kinds) > 30 {
			kinds = kinds[:30]
		}
		e := sim.NewEngine()
		m := newModule(e)
		var completions []sim.Time
		for i, k := range kinds {
			if k {
				readBlock(m, uint32(i), func([]uint32) { completions = append(completions, e.Now()) })
			} else {
				m.WriteWord(uint32(i), 0, uint32(i), func() { completions = append(completions, e.Now()) })
			}
		}
		e.Run()
		if len(completions) != len(kinds) {
			return false
		}
		for i := 1; i < len(completions); i++ {
			if completions[i] <= completions[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestResetTakesBackLentFrames: Reset takes back every frame lent since
// the last one, released or still out, exactly once: the next k borrows
// allocate nothing and hand out k distinct frames of the first round,
// and the one after them is new.
func TestResetTakesBackLentFrames(t *testing.T) {
	const k = 6
	st := NewStore(DefaultConfig().WordsBlock)
	lent := map[*uint32]bool{}
	var round [k][]uint32
	for i := range round {
		round[i] = st.BorrowFrame()
		lent[&round[i][0]] = true
	}
	for i := 0; i < k; i += 2 {
		st.ReleaseFrame(round[i]) // half come back before the reset, half stay out
	}
	if a := testing.AllocsPerRun(5, func() {
		st.Reset()
		for i := range round {
			round[i] = st.BorrowFrame()
		}
	}); a != 0 {
		t.Fatalf("borrowing after Reset allocates %.1f objects, want 0", a)
	}
	seen := map[*uint32]bool{}
	for _, f := range round {
		if !lent[&f[0]] || seen[&f[0]] {
			t.Fatalf("Reset handed out a frame it never lent or one twice")
		}
		seen[&f[0]] = true
	}
	if f := st.BorrowFrame(); lent[&f[0]] {
		t.Fatal("a frame handed out twice after Reset")
	}
}
