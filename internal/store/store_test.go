package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func mustOpen(t *testing.T, dir string, budget int64) *Store {
	t.Helper()
	s, err := Open(dir, budget)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	body := []byte(`{"id":"abc","status":"done"}`)
	if err := s.Put("abc", "done", body); err != nil {
		t.Fatal(err)
	}
	got, status, ok := s.Get("abc")
	if !ok || status != "done" || !bytes.Equal(got, body) {
		t.Fatalf("Get = %q/%q/%v, want body/done/true", got, status, ok)
	}
	st := s.Stats()
	if st.Entries != 1 || st.Bytes != int64(len(body)) || st.Writes != 1 || st.Hits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRestartHitIsByteIdentical(t *testing.T) {
	dir := t.TempDir()
	body := []byte(`{"id":"k1","status":"done","result":{"output":"table\n"}}`)
	s := mustOpen(t, dir, 0)
	if err := s.Put("k1", "done", body); err != nil {
		t.Fatal(err)
	}
	// A fresh store over the same directory — the restart — must serve
	// the exact stored bytes.
	s2 := mustOpen(t, dir, 0)
	got, status, ok := s2.Get("k1")
	if !ok || status != "done" {
		t.Fatalf("restart Get = %q/%v, want done/true", status, ok)
	}
	if !bytes.Equal(got, body) {
		t.Errorf("restart body differs:\n got %q\nwant %q", got, body)
	}
}

func TestCrashMidWriteLeavesNoEntry(t *testing.T) {
	dir := t.TempDir()
	// Simulate a crash mid-write: a temp file exists, the final name
	// does not.
	tmp := filepath.Join(dir, "deadbeef"+tmpSuffix)
	if err := os.WriteFile(tmp, []byte("partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := mustOpen(t, dir, 0)
	if _, _, ok := s.Get("deadbeef"); ok {
		t.Error("half-written entry served")
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Error("temp file survived the startup scan")
	}
	if st := s.Stats(); st.Repairs != 1 {
		t.Errorf("repairs = %d, want 1", st.Repairs)
	}
}

func TestCorruptEntryQuarantinedAtScan(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	if err := s.Put("feed01", "done", []byte("good body")); err != nil {
		t.Fatal(err)
	}
	// Flip one body byte on disk behind the store's back.
	path := filepath.Join(dir, "feed01")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, dir, 0)
	if _, _, ok := s2.Get("feed01"); ok {
		t.Error("corrupt entry served after restart scan")
	}
	if _, err := os.Stat(path + corruptSuffix); err != nil {
		t.Errorf("corrupt entry not quarantined: %v", err)
	}
	if st := s2.Stats(); st.Repairs != 1 {
		t.Errorf("repairs = %d, want 1", st.Repairs)
	}
}

func TestTruncatedEntryQuarantinedAtRead(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	if err := s.Put("feed02", "done", []byte("a body that will be cut short")); err != nil {
		t.Fatal(err)
	}
	// Truncate while the store is live: the index says present, the
	// bytes disagree. Get must quarantine, not serve.
	path := filepath.Join(dir, "feed02")
	if err := os.Truncate(path, int64(headerSize+3)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("feed02"); ok {
		t.Error("truncated entry served")
	}
	if _, err := os.Stat(path + corruptSuffix); err != nil {
		t.Errorf("truncated entry not quarantined: %v", err)
	}
	if _, _, ok := s.Get("feed02"); ok {
		t.Error("quarantined entry resurrected")
	}
	if st := s.Stats(); st.Repairs != 1 || st.Entries != 0 {
		t.Errorf("stats = %+v, want 1 repair / 0 entries", st)
	}
}

func TestByteBudgetEvictsLRU(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 100)
	body := bytes.Repeat([]byte("x"), 40)
	for i := 0; i < 2; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), "done", body); err != nil {
			t.Fatal(err)
		}
	}
	// Touch k0 so k1 is least recently used.
	if _, _, ok := s.Get("k0"); !ok {
		t.Fatal("k0 missing")
	}
	// 120 > 100: one eviction, and it must be k1.
	if err := s.Put("k2", "done", body); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("k1"); ok {
		t.Error("k1 survived, want LRU evicted")
	}
	for _, k := range []string{"k0", "k2"} {
		if _, _, ok := s.Get(k); !ok {
			t.Errorf("%s evicted, want kept", k)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "k1")); !os.IsNotExist(err) {
		t.Error("evicted entry file still on disk")
	}
	st := s.Stats()
	if st.Evictions != 1 || st.Bytes != 80 || st.Entries != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 80 bytes, 2 entries", st)
	}
}

func TestBudgetKeepsOversizeSingleton(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 10)
	if err := s.Put("big", "done", bytes.Repeat([]byte("y"), 64)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("big"); !ok {
		t.Error("an entry larger than the whole budget must still be kept")
	}
}

func TestScanRecencyFromModTimes(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, 0)
	body := bytes.Repeat([]byte("z"), 30)
	for _, k := range []string{"old", "mid", "new"} {
		if err := s.Put(k, "done", body); err != nil {
			t.Fatal(err)
		}
	}
	// Make mtimes unambiguous regardless of filesystem resolution.
	base := time.Now().Add(-time.Hour)
	for i, k := range []string{"old", "mid", "new"} {
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, k), ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen with a budget that forces one eviction on the next Put:
	// the oldest mtime must go first.
	s2 := mustOpen(t, dir, 100)
	if n := s2.Stats().Entries; n != 3 {
		t.Fatalf("len = %d, want 3", n)
	}
	if err := s2.Put("k4", "done", body); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s2.Get("old"); ok {
		t.Error("oldest entry survived, want evicted first after restart")
	}
	if _, _, ok := s2.Get("mid"); !ok {
		t.Error("mid evicted, want kept")
	}
}

func TestReplaceAdjustsBytes(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	if err := s.Put("k", "failed", bytes.Repeat([]byte("a"), 50)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", "done", bytes.Repeat([]byte("b"), 10)); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Bytes; got != 10 {
		t.Errorf("bytes = %d, want 10", got)
	}
	_, status, ok := s.Get("k")
	if !ok || status != "done" {
		t.Errorf("Get status = %q/%v, want done/true", status, ok)
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0)
	for _, k := range []string{"", "../escape", "UPPER", "a/b", "a.b"} {
		if err := s.Put(k, "done", nil); err == nil {
			t.Errorf("Put(%q) accepted, want rejected", k)
		}
		if _, _, ok := s.Get(k); ok {
			t.Errorf("Get(%q) hit, want miss", k)
		}
	}
	if err := s.Put("abc", "bogus-status", nil); err == nil {
		t.Error("unknown status accepted")
	}
}

func TestNilStoreIsInert(t *testing.T) {
	var s *Store
	if err := s.Put("k", "done", []byte("x")); err != nil {
		t.Errorf("nil Put: %v", err)
	}
	if _, _, ok := s.Get("k"); ok {
		t.Error("nil Get hit")
	}
	if s.Stats() != (Stats{}) {
		t.Error("nil accessors not zero")
	}
}
