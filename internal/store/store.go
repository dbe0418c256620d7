// Package store holds coherenced's content-addressed results: Chain,
// the bounded, single-flight memory layer the point memo and the job
// cache are instances of, and Store, the durable layer under both, so a
// completed job's document survives daemon restarts and identical specs
// replay byte-identical forever.
//
// Layout is deliberately boring — one file per key under a flat data
// directory, where the key is the canonical spec's content address (a
// hex SHA-256, so keys are filesystem-safe by construction). Each file
// carries a small fixed header (magic, version, status, body length,
// CRC-32 of the body) followed by the stored document verbatim.
//
// Durability discipline:
//
//   - Writes go to a same-directory temp file which is synced and then
//     atomically renamed over the final name. A crash mid-write leaves
//     only a temp file, never a half-written entry.
//   - Reads verify the header and CRC. A truncated or corrupt entry is
//     quarantined (renamed to *.corrupt) rather than served, and the
//     repair is counted.
//   - Opening the store scans the directory: leftover temp files are
//     removed, corrupt entries are quarantined, and the survivors are
//     indexed by size and modification time so eviction order survives
//     restarts.
//
// The store is bounded by total body bytes, not entry count — a few
// paper-scale sweep documents can outweigh thousands of quick ones —
// and evicts least recently used entries once over budget.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// File format constants.
const (
	magic      = "CADS" // Content-Addressed Durable Store
	version    = 1
	headerSize = len(magic) + 1 + 1 + 2 + 8 + 4 // magic, version, status, reserved, length, crc

	tmpSuffix     = ".tmp"
	corruptSuffix = ".corrupt"
)

// Entry statuses. The store persists the terminal status alongside the
// body so the layering above it can keep its "only done entries count
// as result hits" rule without decoding the document.
const (
	statusDone     byte = 1
	statusFailed   byte = 2
	statusCanceled byte = 3
)

func statusByte(status string) (byte, bool) {
	switch status {
	case "done":
		return statusDone, true
	case "failed":
		return statusFailed, true
	case "canceled":
		return statusCanceled, true
	}
	return 0, false
}

func statusName(b byte) (string, bool) {
	switch b {
	case statusDone:
		return "done", true
	case statusFailed:
		return "failed", true
	case statusCanceled:
		return "canceled", true
	}
	return "", false
}

// Stats is a point-in-time snapshot of the store's lifetime counters
// and gauges, rendered by the /metrics endpoint.
type Stats struct {
	Entries   int    // live entries on disk
	Bytes     int64  // total stored body bytes
	Hits      uint64 // Get calls served from disk
	Misses    uint64 // Get calls with no (valid) entry
	Writes    uint64 // entries durably written
	Evictions uint64 // entries removed by the byte budget
	Repairs   uint64 // corrupt/truncated entries quarantined + temp files removed
}

// Store is the durable content-addressed result store. All methods are
// safe for concurrent use. A nil *Store ignores Put and misses Get, so
// callers can thread one unconditionally.
type Store struct {
	dir string

	mu    sync.Mutex
	index lru[string, struct{}] // bounded by the budget in body bytes (headers excluded)

	hits, misses, writes, evictions, repairs uint64
}

// Open opens (creating if needed) the store rooted at dir, bounded to
// budget total body bytes (<= 0 means unbounded). The startup scan
// removes leftover temp files from interrupted writes, quarantines
// corrupt entries, and rebuilds the recency index from file
// modification times, oldest first.
func Open(dir string, budget int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating data dir: %w", err)
	}
	s := &Store{dir: dir}
	s.index = newLRU(budget, func(key string, _ struct{}) {
		os.Remove(s.path(key))
		s.evictions++
	})
	if err := s.scan(); err != nil {
		return nil, err
	}
	return s, nil
}

// scan rebuilds the in-memory index from the data directory, repairing
// the artifacts a crash can leave behind.
func (s *Store) scan() error {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("store: scanning data dir: %w", err)
	}
	type found struct {
		key   string
		size  int64
		mtime int64
	}
	var live []found
	for _, de := range des {
		name := de.Name()
		if de.IsDir() || strings.HasSuffix(name, corruptSuffix) {
			continue
		}
		path := filepath.Join(s.dir, name)
		if strings.HasSuffix(name, tmpSuffix) {
			// A crash mid-write: the entry was never committed.
			os.Remove(path)
			s.repairs++
			continue
		}
		if !validKey(name) {
			continue // not ours; leave it alone
		}
		size, ok := s.verify(path)
		if !ok {
			s.quarantine(path)
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		live = append(live, found{key: name, size: size, mtime: info.ModTime().UnixNano()})
	}
	// Oldest first, so the most recent ends up most recently used.
	sort.Slice(live, func(i, j int) bool {
		if live[i].mtime != live[j].mtime {
			return live[i].mtime < live[j].mtime
		}
		return live[i].key < live[j].key
	})
	for _, f := range live {
		s.index.put(f.key, struct{}{}, f.size)
	}
	return nil
}

// validKey reports whether key is one the store could have written: a
// non-empty lowercase-hex-and-safe-punctuation name with no path
// structure. Content addresses are hex SHA-256 strings, so this is a
// guard against traversal, not a format.
func validKey(key string) bool {
	if key == "" || len(key) > 128 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return false
		}
	}
	return true
}

func (s *Store) path(key string) string { return filepath.Join(s.dir, key) }

// header builds the fixed entry header for a body.
func header(status byte, body []byte) []byte {
	h := make([]byte, headerSize)
	copy(h, magic)
	h[4] = version
	h[5] = status
	// h[6:8] reserved
	binary.LittleEndian.PutUint64(h[8:], uint64(len(body)))
	binary.LittleEndian.PutUint32(h[16:], crc32.ChecksumIEEE(body))
	return h
}

// parseHeader validates a header and returns the declared status and
// body length.
func parseHeader(h []byte) (status byte, bodyLen uint64, ok bool) {
	if len(h) < headerSize || string(h[:4]) != magic || h[4] != version {
		return 0, 0, false
	}
	if _, ok := statusName(h[5]); !ok {
		return 0, 0, false
	}
	return h[5], binary.LittleEndian.Uint64(h[8:]), true
}

// readEntry reads and fully validates one entry file.
func readEntry(path string) (status byte, body []byte, err error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	if len(raw) < headerSize {
		return 0, nil, fmt.Errorf("truncated header (%d bytes)", len(raw))
	}
	status, bodyLen, ok := parseHeader(raw[:headerSize])
	if !ok {
		return 0, nil, fmt.Errorf("invalid header")
	}
	body = raw[headerSize:]
	if uint64(len(body)) != bodyLen {
		return 0, nil, fmt.Errorf("truncated body (%d of %d bytes)", len(body), bodyLen)
	}
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(raw[16:headerSize]) {
		return 0, nil, fmt.Errorf("checksum mismatch")
	}
	return status, body, nil
}

// verify validates an entry during the startup scan, returning its body
// size.
func (s *Store) verify(path string) (size int64, ok bool) {
	_, body, err := readEntry(path)
	if err != nil {
		return 0, false
	}
	return int64(len(body)), true
}

// quarantine sidelines a corrupt entry so it is never served again but
// stays on disk for forensics, and counts the repair.
func (s *Store) quarantine(path string) {
	if err := os.Rename(path, path+corruptSuffix); err != nil {
		os.Remove(path) // rename failed; fall back to removal
	}
	s.repairs++
}

// Get returns the stored document and terminal status for key,
// refreshing its recency. A corrupt entry is quarantined, counted, and
// reported as a miss.
func (s *Store) Get(key string) (body []byte, status string, ok bool) {
	if s == nil || !validKey(key) {
		return nil, "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.index.get(key); !ok {
		s.misses++
		return nil, "", false
	}
	st, body, err := readEntry(s.path(key))
	if err != nil {
		// The index said live but the bytes disagree (external
		// truncation/corruption): quarantine and forget it.
		s.quarantine(s.path(key))
		s.index.remove(key)
		s.misses++
		return nil, "", false
	}
	name, _ := statusName(st)
	s.hits++
	return body, name, true
}

// Put durably stores (or replaces) the terminal document for key:
// write to a temp file in the same directory, sync, rename into place,
// then evict least recently used entries while over the byte budget.
func (s *Store) Put(key, status string, body []byte) error {
	if s == nil {
		return nil
	}
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	st, ok := statusByte(status)
	if !ok {
		return fmt.Errorf("store: unknown status %q", status)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	final := s.path(key)
	tmp := final + tmpSuffix
	if err := writeFileSync(tmp, header(st, body), body); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing %s: %w", key, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: committing %s: %w", key, err)
	}
	s.index.put(key, struct{}{}, int64(len(body)))
	s.writes++
	return nil
}

// writeFileSync writes header+body to path and syncs it to stable
// storage before returning.
func writeFileSync(path string, chunks ...[]byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Stats snapshots the store's counters and gauges.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:   len(s.index.m),
		Bytes:     s.index.weight,
		Hits:      s.hits,
		Misses:    s.misses,
		Writes:    s.writes,
		Evictions: s.evictions,
		Repairs:   s.repairs,
	}
}
