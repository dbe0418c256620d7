package service

import (
	"bytes"
	"fmt"
	"testing"
)

// The result cache is store.Chain at job granularity: these pin what the
// daemon's documents rely on (store.FuzzChain checks the chain at large).

func TestCacheByteBudgetLRUEviction(t *testing.T) {
	// Three 10-byte bodies fit a 30-byte budget exactly.
	c := newResults(30, nil)
	body := bytes.Repeat([]byte("x"), 10)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("k%d", i), jobDoc{StatusDone, body})
	}
	// Touch k0 so k1 becomes the least recently used.
	if _, ok, _ := c.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	c.Put("k3", jobDoc{StatusDone, body})
	if n := c.Stats().Entries; n != 3 {
		t.Fatalf("len = %d, want 3", n)
	}
	if _, ok, _ := c.Get("k1"); ok {
		t.Error("k1 survived eviction, want LRU out")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok, _ := c.Get(k); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Weight != 30 {
		t.Errorf("evictions = %d, bytes = %d; want 1 and 30", st.Evictions, st.Weight)
	}
}

func TestCacheBigBodyEvictsManySmall(t *testing.T) {
	// A few paper-scale results must not be counted like quick ones: one
	// 90-byte body forces the older small entries out of a 100-byte
	// budget.
	c := newResults(100, nil)
	small := bytes.Repeat([]byte("s"), 10)
	for i := 0; i < 3; i++ {
		c.Put(fmt.Sprintf("small%d", i), jobDoc{StatusDone, small})
	}
	c.Put("big1", jobDoc{StatusDone, bytes.Repeat([]byte("B"), 90)})
	// 30 + 90 = 120 > 100: the two oldest small entries go.
	if n := c.Stats().Entries; n != 2 {
		t.Fatalf("len = %d, want 2 (big1 + newest small)", n)
	}
	c.Put("big2", jobDoc{StatusDone, bytes.Repeat([]byte("B"), 90)})
	if _, ok, _ := c.Get("big2"); !ok {
		t.Error("newest entry evicted")
	}
	if st := c.Stats(); st.Weight > 100 && st.Entries > 1 {
		t.Errorf("over budget with %d entries / %d bytes", st.Entries, st.Weight)
	}
}

func TestCacheReplaceAdjustsBytes(t *testing.T) {
	c := newResults(100, nil)
	c.Put("k", jobDoc{StatusFailed, []byte("v1-long-body")})
	c.Put("k", jobDoc{StatusDone, []byte("v2")})
	if st := c.Stats(); st.Entries != 1 || st.Weight != 2 {
		t.Fatalf("%d entries of %d bytes, want 1 of 2 after replacement", st.Entries, st.Weight)
	}
	d, ok, _ := c.Get("k")
	if !ok || d.status != StatusDone || string(d.body) != "v2" {
		t.Errorf("Get = %q/%q/%v, want v2/done/true", d.body, d.status, ok)
	}
}

func TestCacheKeepsOversizeNewestEntry(t *testing.T) {
	c := newResults(1, nil)
	c.Put("a", jobDoc{StatusDone, []byte("aaaa")})
	c.Put("b", jobDoc{StatusDone, []byte("bbbb")})
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
	if _, ok, _ := c.Get("b"); !ok {
		t.Error("newest oversize entry evicted, want kept")
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	c := newResults(1<<20, nil)
	c.Put("k", jobDoc{StatusDone, []byte("v")})
	c.Get("k")
	c.Get("k")
	c.Get("absent")
	if st := c.Stats(); st.Hits != 2 || st.Misses != 1 || st.Evictions != 0 {
		t.Errorf("stats = %d/%d/%d, want 2/1/0", st.Hits, st.Misses, st.Evictions)
	}
}
