// Package mem models the per-node memory modules of the simulated
// machine. Following the paper: a module can provide the first word of a
// request 20 processor cycles after the request is issued and streams
// subsequent words at 1 word per cycle; memory contention is fully
// modeled (a module serves one request at a time, FIFO).
//
// Shared data are interleaved across the modules at the cache-block level
// (the allocator in internal/machine decides block homes; this package
// only provides timing and backing storage).
//
// Backing storage is a flat arena indexed by block number (Store): the
// simulated address space is dense and bounded, so block data lives at
// words[block*WordsBlock:...] in one slice that grows on demand and is
// reused across runs. The Store also lends out fixed-size block frames —
// scratch buffers the coherence protocols use as message payloads — so
// the steady-state data path performs no allocation.
package mem

import (
	"fmt"

	"coherencesim/internal/sim"
)

// Config holds memory timing parameters.
type Config struct {
	FirstWord  sim.Time // cycles to the first word (paper: 20)
	PerWord    sim.Time // cycles per subsequent word (paper: 1)
	DirLookup  sim.Time // directory/controller processing per transaction
	WordsBlock int      // words per cache block (64B / 4B = 16)
}

// DefaultConfig returns the paper's memory parameters.
func DefaultConfig() Config {
	return Config{FirstWord: 20, PerWord: 1, DirLookup: 4, WordsBlock: 16}
}

// Stats counts module activity.
type Stats struct {
	BlockReads  uint64
	BlockWrites uint64
	WordWrites  uint64
	AtomicOps   uint64
	// BusyCycles accumulates occupied module time, for utilization reports.
	BusyCycles uint64
}

// Store is the flat, arena-backed block store shared by a machine's
// memory modules. Block b's words live at words[b*wordsBlock : (b+1)*
// wordsBlock]; the arena grows on demand (the simulated address space is
// dense — the machine allocator hands out blocks contiguously from 0).
//
// The Store also lends block-sized frames. Frames are the payload
// buffers of coherence messages and cache installs: a protocol
// transaction borrows a frame, fills it completely, carries it through
// the message chain, and the final consumer releases it. Reset takes
// back every frame lent, the ones still in flight too. Because every
// borrower overwrites the frame in full before any read, frames are
// never zeroed, and free-list order cannot affect simulated behaviour.
type Store struct {
	wordsBlock int
	words      []uint32
	frames     [][]uint32 // every frame made, lent or not
	free       [][]uint32
}

// NewStore creates an empty arena for blocks of wordsBlock words.
func NewStore(wordsBlock int) *Store {
	if wordsBlock <= 0 {
		panic("mem: WordsBlock must be positive")
	}
	return &Store{wordsBlock: wordsBlock}
}

// Block returns the backing storage for a block, growing the arena as
// needed. The slice is full-capacity-bounded, so appends through it are
// impossible; mutations are immediate and untimed.
func (st *Store) Block(block uint32) []uint32 {
	lo := int(block) * st.wordsBlock
	hi := lo + st.wordsBlock
	if hi > len(st.words) {
		st.ensure(hi)
	}
	return st.words[lo:hi:hi]
}

// ensure grows the arena to at least hi words. Spare capacity is always
// zero (Reset clears before it truncates), so it can be resliced into
// directly.
func (st *Store) ensure(hi int) {
	if hi > cap(st.words) {
		nw := make([]uint32, len(st.words), max(hi, 2*cap(st.words), 1024))
		copy(nw, st.words)
		st.words = nw
	}
	st.words = st.words[:hi]
}

// BorrowFrame returns a block-sized scratch buffer from the free list
// (allocating only when the list is empty). The caller must overwrite it
// completely before reading and hand it back with ReleaseFrame, or leave
// it to Reset.
func (st *Store) BorrowFrame() []uint32 {
	if n := len(st.free); n > 0 {
		f := st.free[n-1]
		st.free = st.free[:n-1]
		return f
	}
	f := make([]uint32, st.wordsBlock)
	st.frames = append(st.frames, f)
	return f
}

// ReleaseFrame returns a borrowed frame to the free list. Releasing nil
// is a no-op so callers need not guard optional payloads.
func (st *Store) ReleaseFrame(f []uint32) {
	if f != nil {
		st.free = append(st.free, f)
	}
}

// Reset zeroes the words the last run reached and truncates the arena,
// keeping its capacity, and takes back every frame lent, so a reset
// costs what the last run touched, not the longest run before it, and
// a frame a run left in flight serves the next one.
func (st *Store) Reset() {
	clear(st.words)
	st.words = st.words[:0]
	st.free = append(st.free[:0], st.frames...)
}

// Module is one node's memory bank: the timing/contention model layered
// over its slice of the shared Store.
type Module struct {
	e    *sim.Engine
	cfg  Config
	node int

	nextFree sim.Time
	store    *Store

	stats Stats
}

// NewModuleWithStore creates a module backed by an existing arena.
func NewModuleWithStore(e *sim.Engine, node int, cfg Config, st *Store) *Module {
	if cfg.WordsBlock <= 0 {
		panic("mem: WordsBlock must be positive")
	}
	if st.wordsBlock != cfg.WordsBlock {
		panic(fmt.Sprintf("mem: store block size %d != config %d", st.wordsBlock, cfg.WordsBlock))
	}
	return &Module{e: e, node: node, cfg: cfg, store: st}
}

// Stats returns a copy of the activity counters.
func (m *Module) Stats() Stats { return m.stats }

// Reset clears the timing state and counters for machine reuse. The
// backing Store is shared across modules and reset separately.
func (m *Module) Reset() {
	m.nextFree = 0
	m.stats = Stats{}
}

// reserve books the module for dur cycles starting no earlier than now and
// returns the completion time.
func (m *Module) reserve(dur sim.Time) sim.Time {
	done := max(m.e.Now(), m.nextFree) + dur
	m.nextFree = done
	m.stats.BusyCycles += uint64(dur)
	return done
}

// blockReadCycles is the occupancy of a full-block read.
func (m *Module) blockReadCycles() sim.Time {
	return m.cfg.DirLookup + m.cfg.FirstWord + sim.Time(m.cfg.WordsBlock-1)*m.cfg.PerWord
}

// ReadBlockInto fetches the block into the caller-provided buffer
// (typically a borrowed frame) and schedules done at the time the last
// word is available, modeling FIFO module contention. The buffer is
// filled at issue time — the value delivered is the memory content at
// the instant the module accepted the request.
func (m *Module) ReadBlockInto(block uint32, dst []uint32, done func()) {
	m.stats.BlockReads++
	t := m.reserve(m.blockReadCycles())
	copy(dst, m.Block(block))
	m.e.At(t, done)
}

// WriteBlock stores a full block (e.g. a write-back) and schedules done at
// completion. The data slice is consumed at call time and may be reused
// immediately after WriteBlock returns.
func (m *Module) WriteBlock(block uint32, data []uint32, done func()) {
	m.stats.BlockWrites++
	t := m.reserve(m.blockReadCycles())
	copy(m.Block(block), data)
	if done != nil {
		m.e.At(t, done)
	}
}

// WriteWord performs a single-word update (write-through traffic under the
// update-based protocols), schedules done at completion and returns the
// value it overwrote.
func (m *Module) WriteWord(block uint32, word int, v uint32, done func()) (old uint32) {
	m.checkWord(word)
	m.stats.WordWrites++
	t := m.reserve(m.cfg.DirLookup + m.cfg.FirstWord)
	data := m.Block(block)
	old, data[word] = data[word], v
	if done != nil {
		m.e.At(t, done)
	}
	return old
}

// AtomicOp performs op on the word in-memory (the update-based protocols
// place the computational power of atomic instructions at the memory),
// returning the old and new values immediately and scheduling done at
// completion time. The protocol layer carries (old, new) through its
// pooled transaction state instead of a per-op closure.
func (m *Module) AtomicOp(block uint32, word int, op func(old uint32) (new uint32), done func()) (old, newV uint32) {
	m.checkWord(word)
	m.stats.AtomicOps++
	t := m.reserve(m.cfg.DirLookup + m.cfg.FirstWord)
	data := m.Block(block)
	old = data[word]
	newV = op(old)
	data[word] = newV
	if done != nil {
		m.e.At(t, done)
	}
	return old, newV
}

// Block returns the backing storage for a block. Mutations through the
// returned slice are immediate and untimed; protocol code must pair them
// with reserve-based calls above.
func (m *Module) Block(block uint32) []uint32 {
	return m.store.Block(block)
}

// Peek returns the current value of a word without timing side effects.
func (m *Module) Peek(block uint32, word int) uint32 {
	m.checkWord(word)
	return m.Block(block)[word]
}

// Poke sets a word without timing side effects (used for initialization).
func (m *Module) Poke(block uint32, word int, v uint32) {
	m.checkWord(word)
	m.Block(block)[word] = v
}

func (m *Module) checkWord(word int) {
	if word < 0 || word >= m.cfg.WordsBlock {
		panic(fmt.Sprintf("mem: word index %d out of range [0,%d)", word, m.cfg.WordsBlock))
	}
}
