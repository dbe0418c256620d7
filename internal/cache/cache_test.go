package cache

import (
	"os/exec"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddressHelpers(t *testing.T) {
	cases := []struct {
		a     Addr
		block uint32
		word  int
	}{
		{0, 0, 0}, {4, 0, 1}, {60, 0, 15}, {64, 1, 0}, {100, 1, 9}, {65532, 1023, 15},
	}
	for _, c := range cases {
		if BlockOf(c.a) != c.block || WordOf(c.a) != c.word {
			t.Errorf("addr %d: block %d word %d, want %d %d",
				c.a, BlockOf(c.a), WordOf(c.a), c.block, c.word)
		}
	}
	if BlockBase(3) != 192 {
		t.Errorf("BlockBase(3) = %d", BlockBase(3))
	}
}

// TestLookupInlines guards the hot path: every simulated reference calls
// Lookup, and a version that stopped inlining cost 3–5 % single-core CPU
// on the lock, barrier and reduction figures.
func TestLookupInlines(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the compiler in -short mode")
	}
	out, err := exec.Command("go", "build", "-gcflags=-m", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "can inline (*Cache).Lookup\n") {
		t.Errorf("(*Cache).Lookup no longer inlines; the compiler said:\n%s", out)
	}
}

func TestStateString(t *testing.T) {
	if Invalid.String() != "I" || Shared.String() != "S" || Exclusive.String() != "E" {
		t.Error("state strings wrong")
	}
	if State(9).String() == "" {
		t.Error("unknown state empty")
	}
}

func TestGeometry(t *testing.T) {
	c := New(0, 64*1024)
	if c.NumLines() != 1024 {
		t.Fatalf("64KB cache has %d lines, want 1024", c.NumLines())
	}
}

func TestInvalidSizePanics(t *testing.T) {
	for _, sz := range []int{0, -64, 65} {
		sz := sz
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d did not panic", sz)
				}
			}()
			New(0, sz)
		}()
	}
}

func TestInstallLookupRoundtrip(t *testing.T) {
	c := New(0, 64*1024)
	data := make([]uint32, WordsPerBlock)
	data[5] = 42
	if _, ev := c.Install(7, data, Shared); ev {
		t.Fatal("unexpected eviction on cold install")
	}
	ln := c.Lookup(7)
	if ln == nil || ln.State != Shared || ln.Data[5] != 42 {
		t.Fatalf("lookup after install: %+v", ln)
	}
	if c.Lookup(8) != nil {
		t.Fatal("lookup of absent block returned a line")
	}
}

func TestDirectMappedConflictEviction(t *testing.T) {
	c := New(0, 64*1024) // 1024 lines: blocks 3 and 1027 conflict
	c.Install(3, make([]uint32, WordsPerBlock), Exclusive)
	victim, evicted := c.Install(3+1024, make([]uint32, WordsPerBlock), Shared)
	if !evicted || victim.Block != 3 || victim.State != Exclusive {
		t.Fatalf("victim = %+v evicted=%v", victim, evicted)
	}
	if c.Present(3) {
		t.Fatal("evicted block still present")
	}
	if c.stats.Evictions != 1 {
		t.Fatalf("evictions = %d", c.stats.Evictions)
	}
}

func TestVictimPreview(t *testing.T) {
	c := New(0, 64*1024)
	c.Install(3, make([]uint32, WordsPerBlock), Shared)
	if _, would := c.Victim(3); would {
		t.Fatal("same block reported as victim")
	}
	v, would := c.Victim(3 + 1024)
	if !would || v.Block != 3 {
		t.Fatalf("victim preview %+v %v", v, would)
	}
	if !c.Present(3) {
		t.Fatal("Victim() must not evict")
	}
}

func TestInvalidateFiresWatchers(t *testing.T) {
	c := New(0, 64*1024)
	c.Install(9, make([]uint32, WordsPerBlock), Shared)
	woken := 0
	c.Watch(9, func() { woken++ })
	old, was := c.Invalidate(9)
	if !was || old.Block != 9 {
		t.Fatalf("invalidate returned %+v %v", old, was)
	}
	if woken != 1 || c.Watched(9) {
		t.Fatalf("woken = %d, watched %v after the fire; want 1, false", woken, c.Watched(9))
	}
	// watchers are one-shot
	c.Install(9, make([]uint32, WordsPerBlock), Shared)
	c.Invalidate(9)
	if woken != 1 {
		t.Fatal("watcher fired twice")
	}
}

// TestSecondWatchPanics pins one watcher per cache: its processor is
// parked until the watcher fires, so a second Watch is a bug, and the
// panic names both blocks.
func TestSecondWatchPanics(t *testing.T) {
	c := New(3, 64*1024)
	c.Watch(9, func() {})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "block 9") || !strings.Contains(msg, "block 12") {
			t.Fatalf("second Watch panicked with %q; want both blocks named", msg)
		}
	}()
	c.Watch(12, func() {})
}

// TestFlushedWatcherKeysOnBlock: a watcher whose block was flushed (a
// silent drop) still fires on a later update of that block, and never on
// another block that takes the frame meanwhile.
func TestFlushedWatcherKeysOnBlock(t *testing.T) {
	c := New(0, 64*1024) // 1024 frames: blocks 6 and 1030 share one
	data := make([]uint32, WordsPerBlock)
	c.Install(6, data, Shared)
	woken := 0
	c.Watch(6, func() { woken++ })
	c.Flush(6)
	c.Install(6+1024, data, Shared)
	c.ApplyUpdate(c.Lookup(6+1024), 0, 1)
	c.Invalidate(6 + 1024)
	if woken != 0 || !c.Watched(6) || c.Watched(6+1024) {
		t.Fatalf("another occupant of the frame woke the watcher (woken %d, watched %v/%v)", woken, c.Watched(6), c.Watched(6+1024))
	}
	c.Install(6, data, Shared)
	c.ApplyUpdate(c.Lookup(6), 0, 1)
	if woken != 1 || c.Watched(6) {
		t.Fatalf("update of the flushed, reinstalled block: woken %d, watched %v; want 1, false", woken, c.Watched(6))
	}
}

func TestApplyUpdateChangesWordAndWakes(t *testing.T) {
	c := New(0, 64*1024)
	c.Install(4, make([]uint32, WordsPerBlock), Shared)
	woken := false
	c.Watch(4, func() { woken = true })
	c.ApplyUpdate(c.Lookup(4), 2, 77)
	if c.Lookup(4).Data[2] != 77 || !woken || c.stats.UpdatesIn != 1 {
		t.Fatalf("data %d woken %v updates in %d", c.Lookup(4).Data[2], woken, c.stats.UpdatesIn)
	}
}

func TestEvictionFiresWatchers(t *testing.T) {
	c := New(0, 64*1024)
	c.Install(3, make([]uint32, WordsPerBlock), Shared)
	woken := false
	c.Watch(3, func() { woken = true })
	c.Install(3+1024, make([]uint32, WordsPerBlock), Shared)
	if !woken {
		t.Fatal("eviction did not fire watcher")
	}
}

func TestFlushSilent(t *testing.T) {
	c := New(0, 64*1024)
	c.Install(6, make([]uint32, WordsPerBlock), Exclusive)
	woken := false
	c.Watch(6, func() { woken = true })
	old, was := c.Flush(6)
	if !was || old.State != Exclusive {
		t.Fatalf("flush returned %+v %v", old, was)
	}
	if woken {
		t.Fatal("flush fired watchers; must be silent")
	}
	if c.Present(6) {
		t.Fatal("flushed block still present")
	}
	if _, was := c.Flush(6); was {
		t.Fatal("double flush reported a line")
	}
}

func TestInstallResetsCounterAndDirty(t *testing.T) {
	c := New(0, 64*1024)
	c.Install(1, make([]uint32, WordsPerBlock), Shared)
	ln := c.Lookup(1)
	ln.Counter = 3
	ln.Dirty = true
	c.Install(1, make([]uint32, WordsPerBlock), Shared) // refill same block
	ln = c.Lookup(1)
	if ln.Counter != 0 || ln.Dirty {
		t.Fatalf("refill kept counter=%d dirty=%v", ln.Counter, ln.Dirty)
	}
}

func TestForEachValid(t *testing.T) {
	c := New(0, 64*1024)
	c.Install(1, make([]uint32, WordsPerBlock), Shared)
	c.Install(2, make([]uint32, WordsPerBlock), Exclusive)
	seen := map[uint32]bool{}
	c.ForEachValid(func(ln *Line) { seen[ln.Block] = true })
	if len(seen) != 2 || !seen[1] || !seen[2] {
		t.Fatalf("seen = %v", seen)
	}
}

func TestWriteBufferFIFO(t *testing.T) {
	wb := NewWriteBuffer(4)
	if !wb.Empty() || wb.Full() || len(wb.buf) != 4 {
		t.Fatal("fresh buffer state wrong")
	}
	wb.Push(4, 10)
	wb.Push(8, 20)
	wb.Push(4, 30)
	if wb.n != 3 {
		t.Fatalf("len = %d", wb.n)
	}
	if h := wb.Head(); h.Addr != 4 || h.Val != 10 {
		t.Fatalf("head = %+v", h)
	}
	if e := wb.PopHead(); e.Val != 10 {
		t.Fatalf("pop = %+v", e)
	}
	if e := wb.PopHead(); e.Addr != 8 {
		t.Fatalf("pop = %+v", e)
	}
	if e := wb.PopHead(); e.Val != 30 {
		t.Fatalf("pop = %+v", e)
	}
}

func TestWriteBufferForwardNewest(t *testing.T) {
	wb := NewWriteBuffer(4)
	wb.Push(4, 10)
	wb.Push(4, 30)
	if v, ok := wb.Forward(4); !ok || v != 30 {
		t.Fatalf("Forward = %d %v, want newest 30", v, ok)
	}
	if _, ok := wb.Forward(8); ok {
		t.Fatal("Forward hit for absent address")
	}
}

func TestWriteBufferOverflowPanics(t *testing.T) {
	wb := NewWriteBuffer(1)
	wb.Push(0, 1)
	if !wb.Full() {
		t.Fatal("buffer should be full")
	}
	defer func() {
		if recover() == nil {
			t.Error("push into full buffer did not panic")
		}
	}()
	wb.Push(4, 2)
}

func TestWriteBufferDrainingFlag(t *testing.T) {
	wb := NewWriteBuffer(2)
	wb.Push(0, 1)
	if wb.Draining() {
		t.Fatal("fresh entry marked draining")
	}
	wb.MarkDraining()
	if !wb.Draining() {
		t.Fatal("MarkDraining had no effect")
	}
	wb.PopHead()
	if wb.Draining() {
		t.Fatal("PopHead did not clear draining")
	}
}

func TestWriteBufferEmptyOpsPanic(t *testing.T) {
	for name, f := range map[string]func(*WriteBuffer){
		"Head":         func(wb *WriteBuffer) { wb.Head() },
		"MarkDraining": func(wb *WriteBuffer) { wb.MarkDraining() },
	} {
		f := f
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on empty buffer did not panic", name)
				}
			}()
			f(NewWriteBuffer(2))
		}()
	}
}

// Property: address helpers are consistent — reconstructing an address
// from (block, word) gives back the aligned address.
func TestPropertyAddrRoundtrip(t *testing.T) {
	f := func(raw uint32) bool {
		a := Addr(raw &^ 3) // word-align
		b, w := BlockOf(a), WordOf(a)
		return Addr(b*BlockBytes+uint32(w*WordBytes)) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: a direct-mapped cache never holds two blocks with the same
// frame index, and Lookup never returns a different block than asked.
func TestPropertyDirectMappedInvariant(t *testing.T) {
	f := func(blocks []uint16) bool {
		c := New(0, 4096) // 64 lines — small so conflicts are common
		data := make([]uint32, WordsPerBlock)
		for _, b := range blocks {
			c.Install(uint32(b), data, Shared)
			if ln := c.Lookup(uint32(b)); ln == nil || ln.Block != uint32(b) {
				return false
			}
		}
		seen := map[int]int{}
		c.ForEachValid(func(ln *Line) { seen[int(ln.Block)%c.NumLines()]++ })
		for _, n := range seen {
			if n > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// checkHighWater asserts the frame table's invariants: the slot table is
// within the geometry, lines holds the zero sentinel plus exactly one
// line per installed frame, each named by one slot, and both arrays are
// zero in [len, cap).
func checkHighWater(t *testing.T, c *Cache) {
	t.Helper()
	if len(c.slot) > c.frames || cap(c.slot) > c.frames || cap(c.lines) > c.frames+1 {
		t.Fatalf("%d slots (cap %d), lines cap %d exceed the geometry's %d frames", len(c.slot), cap(c.slot), cap(c.lines), c.frames)
	}
	named := make([]bool, len(c.lines))
	for f, s := range c.slot {
		if s != 0 && named[s] {
			t.Fatalf("frame %d names line %d, which another frame names", f, s)
		}
		named[s] = true
	}
	for i, ln := range c.lines {
		if i == 0 && ln != (Line{}) || i > 0 && !named[i] {
			t.Fatalf("line %d (%+v) is neither the zero sentinel nor named by a frame", i, ln)
		}
	}
	for i, s := range c.slot[len(c.slot):cap(c.slot)] {
		if s != 0 {
			t.Fatalf("spare slot %d is %d, want zero", len(c.slot)+i, s)
		}
	}
	for i, ln := range c.lines[len(c.lines):cap(c.lines)] {
		if ln != (Line{}) {
			t.Fatalf("spare line %d is %+v, want zero", len(c.lines)+i, ln)
		}
	}
}

// TestFramesGrowToHighWater pins the frame table: a new cache holds no
// slots or lines, Install grows the slot table to the frame it touches
// and appends one line per newly used frame, a frame beyond the mark or
// never installed reads Invalid, Reset truncates the slots to 0 and the
// lines to the sentinel with the spare entries zero, keeps both
// capacities and drops the watcher, and regrowth within capacity
// allocates nothing.
func TestFramesGrowToHighWater(t *testing.T) {
	c := New(0, 64*1024)
	if len(c.slot) != 0 || len(c.lines) != 0 || c.NumLines() != 1024 {
		t.Fatalf("new cache: %d slots, %d lines, NumLines %d; want 0, 0, 1024", len(c.slot), len(c.lines), c.NumLines())
	}
	data := make([]uint32, WordsPerBlock)
	if c.Lookup(7) != nil || c.Watched(7) || c.Present(1030) {
		t.Fatal("an untouched frame reads valid or watched")
	}
	if _, ok := c.Victim(7); ok {
		t.Fatal("an untouched frame has a victim")
	}
	c.FireWatchers(7) // no frames: a no-op, not a panic

	c.Install(5, data, Shared)
	if len(c.slot) != 6 || len(c.lines) != 2 {
		t.Fatalf("Install of frame 5 left %d slots, %d lines; want 6, 2 (the sentinel and frame 5's)", len(c.slot), len(c.lines))
	}
	if c.Lookup(2) != nil || c.Present(2+1024) {
		t.Fatal("a frame below the mark that was never installed reads valid")
	}
	if _, ok := c.Victim(2); ok {
		t.Fatal("a never-installed frame has a victim")
	}
	checkHighWater(t, c)

	// A sparse run: one block per 64 frames spans the table but stores 17
	// lines, 16 new and frame 5's.
	for b := uint32(0); b < 1024; b += 64 {
		c.Install(b, data, Shared)
	}
	if len(c.slot) != 961 || len(c.lines) != 18 {
		t.Fatalf("sparse run left %d slots, %d lines; want 961, 18", len(c.slot), len(c.lines))
	}
	checkHighWater(t, c)

	// A run that wraps: blocks past the geometry evict and reach every frame.
	for b := uint32(0); b < 2048+17; b++ {
		c.Install(b, data, Exclusive)
	}
	if len(c.slot) != 1024 || len(c.lines) != 1025 {
		t.Fatalf("wrapping run left %d slots, %d lines; want 1024, 1025", len(c.slot), len(c.lines))
	}
	checkHighWater(t, c)

	c.Watch(3, func() {})
	c.Reset()
	if len(c.slot) != 0 || cap(c.slot) != 1024 || len(c.lines) != 1 || cap(c.lines) != 1025 {
		t.Fatalf("Reset: %d slots (cap %d), %d lines (cap %d); want 0 (1024), 1 (1025)", len(c.slot), cap(c.slot), len(c.lines), cap(c.lines))
	}
	checkHighWater(t, c)
	if c.Lookup(3) != nil || c.Watched(3) {
		t.Fatal("a frame past the reset mark reads valid or watched")
	}

	if a := testing.AllocsPerRun(20, func() {
		for b := uint32(0); b < 1100; b += 7 {
			c.Install(b, data, Shared)
		}
		c.Reset()
	}); a != 0 {
		t.Fatalf("regrowth within capacity allocates %.1f objects, want 0", a)
	}
	checkHighWater(t, c)
}
