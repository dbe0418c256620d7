package classify

import (
	"strings"
	"testing"
	"testing/quick"

	"coherencesim/internal/cache"
)

func TestKindStrings(t *testing.T) {
	if MissCold.String() != "cold" || MissUpgrade.String() != "excl-req" {
		t.Error("miss kind strings wrong")
	}
	if UpdTrue.String() != "useful" || UpdDrop.String() != "drop" {
		t.Error("update kind strings wrong")
	}
	if MissKind(99).String() == "" || UpdateKind(99).String() == "" {
		t.Error("unknown kinds must stringify")
	}
}

func TestColdMiss(t *testing.T) {
	c := New(2)
	if k := c.Miss(0, 10, 3); k != MissCold {
		t.Fatalf("first miss = %v, want cold", k)
	}
	if c.Misses()[MissCold] != 1 {
		t.Fatalf("counts %v", c.Misses())
	}
}

func TestTrueSharingMiss(t *testing.T) {
	c := New(2)
	// P0 caches block 5, reads word 2.
	c.Miss(0, 5, 2)
	c.Installed(0, 5)
	c.Reference(0, 5, 2)
	// P1 writes word 2: invalidation (LostCopy first, then GlobalWrite).
	c.LostCopy(0, 5, LossInvalidation)
	c.GlobalWrite(1, 5, 2)
	// P0 re-reads the written word: true sharing.
	if k := c.Miss(0, 5, 2); k != MissTrue {
		t.Fatalf("miss = %v, want true sharing", k)
	}
}

func TestFalseSharingMiss(t *testing.T) {
	c := New(2)
	c.Miss(0, 5, 2)
	c.Installed(0, 5)
	c.LostCopy(0, 5, LossInvalidation)
	c.GlobalWrite(1, 5, 9) // P1 wrote a *different* word
	if k := c.Miss(0, 5, 2); k != MissFalse {
		t.Fatalf("miss = %v, want false sharing", k)
	}
}

func TestEvictionMiss(t *testing.T) {
	c := New(1)
	c.Miss(0, 5, 0)
	c.Installed(0, 5)
	c.LostCopy(0, 5, LossEviction)
	if k := c.Miss(0, 5, 0); k != MissEviction {
		t.Fatalf("miss = %v, want eviction", k)
	}
}

func TestDropMiss(t *testing.T) {
	c := New(2)
	c.Miss(0, 5, 0)
	c.Installed(0, 5)
	c.LostCopy(0, 5, LossDrop)
	if k := c.Miss(0, 5, 0); k != MissDrop {
		t.Fatalf("miss = %v, want drop", k)
	}
}

func TestFlushMissWithInterveningWriteIsSharing(t *testing.T) {
	c := New(2)
	c.Miss(1, 7, 0)
	c.Installed(1, 7)
	c.LostCopy(1, 7, LossFlush)
	c.GlobalWrite(0, 7, 0)
	if k := c.Miss(1, 7, 0); k != MissTrue {
		t.Fatalf("miss = %v, want true sharing after flush+write", k)
	}
}

func TestFlushMissWithoutWriteIsEvictionLike(t *testing.T) {
	c := New(2)
	c.Miss(1, 7, 0)
	c.Installed(1, 7)
	c.LostCopy(1, 7, LossFlush)
	if k := c.Miss(1, 7, 0); k != MissEviction {
		t.Fatalf("miss = %v, want eviction-like after silent flush", k)
	}
}

func TestUpgradeCounted(t *testing.T) {
	c := New(2)
	c.Upgrade()
	m := c.Misses()
	if m[MissUpgrade] != 1 || m.TotalMisses() != 0 || m.Total() != 1 {
		t.Fatalf("counts %v", m)
	}
}

func TestUsefulUpdateOnReference(t *testing.T) {
	c := New(2)
	c.Installed(1, 3)
	c.UpdateDelivered(1, 3, 4, 0)
	c.Reference(1, 3, 4)
	u := c.Updates()
	if u[UpdTrue] != 1 || u.Total() != 1 {
		t.Fatalf("updates %v", u)
	}
}

func TestProliferationOnOverwrite(t *testing.T) {
	c := New(2)
	c.Installed(1, 3)
	c.UpdateDelivered(1, 3, 4, 0)
	c.UpdateDelivered(1, 3, 4, 0) // overwrites unreferenced update
	u := c.Updates()
	if u[UpdProliferation] != 1 {
		t.Fatalf("updates %v, want 1 proliferation", u)
	}
}

func TestFalseSharingUpdateOnOverwriteWithOtherWordActivity(t *testing.T) {
	c := New(2)
	c.Installed(1, 3)
	c.UpdateDelivered(1, 3, 4, 0)
	c.Reference(1, 3, 9) // receiver touches another word in the block
	c.UpdateDelivered(1, 3, 4, 0)
	u := c.Updates()
	if u[UpdFalse] != 1 {
		t.Fatalf("updates %v, want 1 false-sharing update", u)
	}
}

func TestReplacementUpdate(t *testing.T) {
	c := New(2)
	c.Installed(1, 3)
	c.UpdateDelivered(1, 3, 4, 0)
	c.LostCopy(1, 3, LossEviction)
	u := c.Updates()
	if u[UpdReplacement] != 1 {
		t.Fatalf("updates %v, want 1 replacement", u)
	}
}

func TestTerminationUpdate(t *testing.T) {
	c := New(2)
	c.Installed(1, 3)
	c.UpdateDelivered(1, 3, 4, 0)
	c.Finish()
	u := c.Updates()
	if u[UpdTermination] != 1 {
		t.Fatalf("updates %v, want 1 termination", u)
	}
}

func TestDropUpdateSequence(t *testing.T) {
	c := New(2)
	c.Installed(1, 3)
	// Three unreferenced updates, fourth triggers the drop.
	c.UpdateDelivered(1, 3, 4, 0)
	c.UpdateDelivered(1, 3, 4, 0)
	c.UpdateDelivered(1, 3, 4, 0)
	c.DropDelivered(1, 3, 4)
	c.LostCopy(1, 3, LossDrop)
	u := c.Updates()
	if u[UpdDrop] != 1 {
		t.Fatalf("updates %v, want 1 drop", u)
	}
	if u[UpdProliferation] != 3 {
		t.Fatalf("updates %v, want 3 proliferation", u)
	}
	if u.Total() != 4 {
		t.Fatalf("total %d, want 4", u.Total())
	}
}

func TestUpdateThenReferenceThenOverwriteCountsOnce(t *testing.T) {
	c := New(2)
	c.Installed(1, 3)
	c.UpdateDelivered(1, 3, 4, 0)
	c.Reference(1, 3, 4) // classified useful immediately
	c.UpdateDelivered(1, 3, 4, 0)
	c.Finish()
	u := c.Updates()
	if u[UpdTrue] != 1 || u[UpdTermination] != 1 || u.Total() != 2 {
		t.Fatalf("updates %v", u)
	}
}

func TestCountsHelpers(t *testing.T) {
	var m MissCounts
	m[MissCold] = 2
	m[MissTrue] = 3
	m[MissFalse] = 1
	m[MissUpgrade] = 4
	if m.Total() != 10 || m.TotalMisses() != 6 {
		t.Fatalf("helpers: total=%d misses=%d", m.Total(), m.TotalMisses())
	}
	var u UpdateCounts
	u[UpdTrue] = 7
	u[UpdProliferation] = 3
	if u.Total() != 10 || u.Useful() != 7 {
		t.Fatalf("update helpers: %d %d", u.Total(), u.Useful())
	}
}

func TestInvalidProcsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

// Every hook that takes a word rejects one outside the block with a
// classify: panic — with mask-based pending tracking an out-of-range
// word would otherwise shift to zero and vanish.
func TestWordOutOfRangePanics(t *testing.T) {
	hooks := map[string]func(c *Classifier, word int){
		"GlobalWrite":     func(c *Classifier, w int) { c.GlobalWrite(0, 1, w) },
		"Reference":       func(c *Classifier, w int) { c.Reference(0, 1, w) },
		"Miss":            func(c *Classifier, w int) { c.Miss(0, 1, w) },
		"UpdateDelivered": func(c *Classifier, w int) { c.UpdateDelivered(0, 1, w, 1) },
		"DropDelivered":   func(c *Classifier, w int) { c.DropDelivered(0, 1, w) },
	}
	for name, hook := range hooks {
		for _, word := range []int{-1, wordsPerBlock, 1 << 20} {
			func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, "classify: word ") {
						t.Errorf("%s(word=%d) panicked with %q, want a classify: word message", name, word, msg)
					}
				}()
				hook(New(2), word)
			}()
		}
		hook(New(2), wordsPerBlock-1) // the last word is in range
	}
}

func TestWordsPerBlockMatchesCache(t *testing.T) {
	if wordsPerBlock != cache.WordsPerBlock {
		t.Fatalf("wordsPerBlock = %d, cache.WordsPerBlock = %d", wordsPerBlock, cache.WordsPerBlock)
	}
}

// Hooks on a (processor, block) pair the classifier has already seen
// allocate nothing: no map, no per-update record.
func TestHooksOnTouchedBlockDoNotAllocate(t *testing.T) {
	c := New(4)
	c.Miss(1, 9, 0)
	c.Installed(1, 9)
	c.GlobalWrite(0, 9, 0)
	allocs := testing.AllocsPerRun(100, func() {
		c.UpdateDelivered(1, 9, 3, 0)
		c.Reference(1, 9, 5)
		c.UpdateDelivered(1, 9, 3, 0)
		c.Reference(1, 9, 3)
		c.GlobalWrite(0, 9, 3)
		c.DropDelivered(1, 9, 4)
		c.LostCopy(1, 9, LossDrop)
		c.Miss(1, 9, 3)
		c.Installed(1, 9)
		c.LostCopy(1, 9, LossEviction)
	})
	if allocs != 0 {
		t.Fatalf("hooks on a touched block allocate %.0f objects per round, want 0", allocs)
	}
}

// Property: every delivered update is eventually classified in exactly one
// category once Finish runs, for arbitrary interleavings of deliveries,
// references, and evictions.
func TestPropertyUpdateConservation(t *testing.T) {
	type op struct {
		Kind byte // 0 deliver, 1 reference, 2 evict
		Word uint8
	}
	f := func(ops []op) bool {
		c := New(2)
		c.Installed(1, 0)
		delivered := uint64(0)
		drops := uint64(0)
		for _, o := range ops {
			w := int(o.Word % 16)
			switch o.Kind % 4 {
			case 0:
				c.UpdateDelivered(1, 0, w, 0)
				delivered++
			case 1:
				c.Reference(1, 0, w)
			case 2:
				c.LostCopy(1, 0, LossEviction)
				c.Installed(1, 0)
			case 3:
				c.DropDelivered(1, 0, w)
				drops++
				c.LostCopy(1, 0, LossDrop)
				c.Installed(1, 0)
			}
		}
		c.Finish()
		return c.Updates().Total() == delivered+drops
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: miss classification is total — every miss lands in exactly one
// of the five miss categories regardless of history.
func TestPropertyMissTotality(t *testing.T) {
	type step struct {
		Proc   uint8
		Block  uint8
		Word   uint8
		Action uint8
	}
	f := func(steps []step) bool {
		c := New(4)
		misses := uint64(0)
		for _, s := range steps {
			p := int(s.Proc % 4)
			b := uint32(s.Block % 8)
			w := int(s.Word % 16)
			switch s.Action % 5 {
			case 0:
				c.Miss(p, b, w)
				misses++
				c.Installed(p, b)
			case 1:
				c.Reference(p, b, w)
			case 2:
				c.GlobalWrite(p, b, w)
			case 3:
				c.LostCopy(p, b, LossReason(int(s.Word)%4))
			case 4:
				c.Upgrade()
			}
		}
		return c.Misses().TotalMisses() == misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestReferencesAndMissRate(t *testing.T) {
	c := New(2)
	if c.MissRate() != 0 {
		t.Fatal("empty classifier has nonzero miss rate")
	}
	// 1 miss, then 4 references.
	c.Miss(0, 1, 0)
	c.Installed(0, 1)
	for i := 0; i < 4; i++ {
		c.Reference(0, 1, 0)
	}
	if c.References() != 4 {
		t.Fatalf("references = %d", c.References())
	}
	if got := c.MissRate(); got != 0.25 {
		t.Fatalf("miss rate = %f, want 0.25", got)
	}
	// Upgrades do not count as misses for the rate.
	c.Upgrade()
	if got := c.MissRate(); got != 0.25 {
		t.Fatalf("miss rate after upgrade = %f, want 0.25", got)
	}
}
