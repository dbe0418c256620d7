package proto

import (
	"math/rand"
	"slices"
	"testing"

	"coherencesim/internal/cache"
)

func checkClean(t *testing.T, ts *testSystem, context string) {
	t.Helper()
	if errs := ts.s.CheckCoherence(); len(errs) != 0 {
		for _, e := range errs {
			t.Errorf("%s: %v", context, e)
		}
	}
}

func TestInvariantsHoldAfterBasicFlows(t *testing.T) {
	for _, pr := range allProtocols() {
		ts := newTest(t, pr, 4)
		ts.script().
			read(0, 64, nil).
			read(1, 64, nil).
			write(2, 64, 5).
			atomic(3, 64, FetchAdd, 1, 0, nil).
			write(0, 64, 9).
			read(3, 64, nil).
			flush(1, 64).
			run()
		checkClean(t, ts, pr.String())
	}
}

func TestInvariantsHoldAfterRandomStress(t *testing.T) {
	for _, pr := range allProtocols() {
		rng := rand.New(rand.NewSource(42))
		ts := newTest(t, pr, 8)
		sc := ts.script()
		for i := 0; i < 300; i++ {
			p := rng.Intn(8)
			a := cache.Addr(64 * rng.Intn(6))
			a += cache.Addr(4 * rng.Intn(4)) // vary words within blocks
			switch rng.Intn(5) {
			case 0, 1:
				sc.read(p, a, nil)
			case 2:
				sc.write(p, a, uint32(i))
			case 3:
				sc.atomic(p, a, AtomicKind(rng.Intn(3)), uint32(i), uint32(i+1), nil)
			case 4:
				sc.flush(p, a)
			}
		}
		sc.run()
		checkClean(t, ts, pr.String())
	}
}

func TestInvariantsHoldUnderConflictEvictions(t *testing.T) {
	for _, pr := range allProtocols() {
		// Shrink caches to 2 lines so conflicts are constant.
		e := newTest(t, pr, 4, withCacheBytes(2*cache.BlockBytes))
		rng := rand.New(rand.NewSource(7))
		sc := e.script()
		for i := 0; i < 200; i++ {
			p := rng.Intn(4)
			a := cache.Addr(64 * rng.Intn(8)) // 8 blocks over 2 frames
			if rng.Intn(2) == 0 {
				sc.read(p, a, nil)
			} else {
				sc.write(p, a, uint32(i))
			}
		}
		sc.run()
		checkClean(t, e, pr.String())
	}
}

func TestCheckerDetectsPlantedViolations(t *testing.T) {
	// Corrupt the state on purpose and ensure the checker notices.
	ts := newTest(t, WI, 4)
	ts.script().write(0, 64, 1).run()
	// Plant a second exclusive copy at node 1.
	data := make([]uint32, cache.WordsPerBlock)
	ts.s.Cache(1).Install(1, data, cache.Exclusive)
	errs := ts.s.CheckCoherence()
	if len(errs) == 0 {
		t.Fatal("checker missed a planted double-exclusive violation")
	}

	// Stale sharer: directory lists a node that holds nothing.
	ts2 := newTest(t, PU, 4)
	ts2.script().read(2, 64, nil).run()
	ts2.s.Cache(2).Invalidate(1) // drop the copy behind the directory's back
	if errs := ts2.s.CheckCoherence(); len(errs) == 0 {
		t.Fatal("checker missed a stale sharer")
	}

	// Value divergence on a clean copy.
	ts3 := newTest(t, PU, 4)
	ts3.script().read(2, 64, nil).run()
	ts3.s.Cache(2).Lookup(1).Data[0] = 0xbad
	if errs := ts3.s.CheckCoherence(); len(errs) == 0 {
		t.Fatal("checker missed a value divergence")
	}
}

// TestCheckerOrderIsDeterministic plants violations in two blocks and
// requires every call to report them identically: blocks ascending, and
// within a block the nodes ascending.
func TestCheckerOrderIsDeterministic(t *testing.T) {
	ts := newTest(t, WI, 4)
	ts.script().read(0, 64, nil).read(1, 128, nil).run()
	for _, b := range []uint32{2, 1} {
		for _, q := range []int{3, 2} {
			ts.s.Cache(q).Install(b, append([]uint32(nil), ts.s.Memory(ts.s.HomeOf(b)).Block(b)...), cache.Shared)
		}
	}
	ts.s.Cache(0).Lookup(1).Data[0] = 7
	want := []string{
		"block 1: node 2 caches the block but is not a recorded sharer",
		"block 1: node 3 caches the block but is not a recorded sharer",
		"block 1 word 0: node 0 has 7, memory has 0",
		"block 2: node 2 caches the block but is not a recorded sharer",
		"block 2: node 3 caches the block but is not a recorded sharer",
	}
	for i := 0; i < 20; i++ {
		var got []string
		for _, err := range ts.s.CheckCoherence() {
			got = append(got, err.Error())
		}
		if !slices.Equal(got, want) {
			t.Fatalf("call %d reported\n%q\nwant\n%q", i, got, want)
		}
	}
}

func TestDirStringForms(t *testing.T) {
	if dirString(nil) != "absent" {
		t.Error("nil directory string")
	}
	d := &DirDump{}
	if dirString(d) != "uncached" {
		t.Error("uncached string")
	}
	d.Share(2)
	if dirString(d) != "shared(100)" {
		t.Errorf("shared string = %s", dirString(d))
	}
	d.Grant(3)
	if dirString(d) != "owned(3)" {
		t.Errorf("owned string = %s", dirString(d))
	}
}
