package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreEntry: whatever bytes sit in an entry file — found by the
// startup scan, or swapped in under a live index — are either refused
// (a miss; the file quarantined intact, the repair counted) or are a
// well-formed entry served exactly: magic, version, a known status, a
// body of the declared length whose CRC-32 is the header's. Open never
// fails on them and nothing with a failing CRC is ever served.
func FuzzStoreEntry(f *testing.F) {
	const key = "k1"
	f.Fuzz(func(t *testing.T, raw []byte) {
		check := func(t *testing.T, s *Store, dir string) {
			t.Helper()
			body, status, ok := s.Get(key)
			if !ok {
				kept, err := os.ReadFile(filepath.Join(dir, key+corruptSuffix))
				if err != nil || !bytes.Equal(kept, raw) {
					t.Fatalf("refused entry not quarantined intact: %v", err)
				}
				if _, err := os.Stat(filepath.Join(dir, key)); !os.IsNotExist(err) {
					t.Fatalf("refused entry still in place: %v", err)
				}
				if st := s.Stats(); st.Repairs != 1 || st.Entries != 0 || st.Bytes != 0 {
					t.Fatalf("after a refusal: %+v", st)
				}
				return
			}
			st, known := statusByte(status)
			if !known || len(raw) != headerSize+len(body) || string(raw[:4]) != magic || raw[4] != version || raw[5] != st {
				t.Fatalf("served status %q, %d body bytes from a %d-byte file with header % x", status, len(body), len(raw), raw[:min(len(raw), headerSize)])
			}
			if !bytes.Equal(raw[headerSize:], body) || crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(raw[16:]) {
				t.Fatal("served a body that is not the file's, or whose CRC fails")
			}
			if err := s.Put(key, status, body); err != nil {
				t.Fatal(err)
			}
			if again, status2, ok := s.Get(key); !ok || status2 != status || !bytes.Equal(again, body) {
				t.Fatalf("served entry does not round-trip through Put: %q/%v", status2, ok)
			}
		}
		t.Run("found by the scan", func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, key), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			check(t, mustOpen(t, dir, 0), dir)
		})
		t.Run("swapped in under the index", func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, 0)
			if err := s.Put(key, "done", []byte("original")); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, key), raw, 0o644); err != nil {
				t.Fatal(err)
			}
			check(t, s, dir)
		})
	})
}
