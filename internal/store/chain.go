package store

import (
	"container/list"
	"context"
	"sync"
)

// lru is a least-recently-used index bounded by total weight (<= 0 is
// unbounded): a Chain's memory layer and a Store's index of its files.
// The newest entry always stays, however heavy: serving it beats
// thrashing. Callers serialize access.
type lru[K comparable, V any] struct {
	bound, weight int64
	ll            list.List // of *lruEntry[K, V], most recent first
	m             map[K]*list.Element
	evict         func(K, V) // sees every entry the bound pushes out
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
	w   int64
}

func newLRU[K comparable, V any](bound int64, evict func(K, V)) lru[K, V] {
	return lru[K, V]{bound: bound, m: make(map[K]*list.Element), evict: evict}
}

// get returns k's value and makes it the most recent entry.
func (l *lru[K, V]) get(k K) (v V, ok bool) {
	el, ok := l.m[k]
	if ok {
		l.ll.MoveToFront(el)
		v = el.Value.(*lruEntry[K, V]).val
	}
	return v, ok
}

// put makes v, of weight w, k's value and the most recent entry, then
// evicts from the back while over the bound.
func (l *lru[K, V]) put(k K, v V, w int64) {
	l.remove(k)
	l.m[k] = l.ll.PushFront(&lruEntry[K, V]{k, v, w})
	for l.weight += w; l.bound > 0 && l.weight > l.bound && l.ll.Len() > 1; {
		e := l.ll.Back().Value.(*lruEntry[K, V])
		l.remove(e.key)
		l.evict(e.key, e.val)
	}
}

func (l *lru[K, V]) remove(k K) {
	if el, ok := l.m[k]; ok {
		l.ll.Remove(el)
		delete(l.m, k)
		l.weight -= el.Value.(*lruEntry[K, V]).w
	}
}

// Durable is a chain's optional layer under memory: a Store behind an
// adapter for one granularity's keys and values. Load answers what
// memory does not hold; Save receives every Put. The zero value is none.
type Durable[K comparable, V any] struct {
	Load func(K) (V, bool)
	Save func(K, V)
}

// ChainStats is a snapshot of a chain's gauges and lifetime counters.
type ChainStats struct {
	Entries   int    // values in memory, plus builds in flight
	Weight    int64  // total weight of the values in memory
	Hits      uint64 // lookups answered by memory or by a build in flight
	Misses    uint64 // lookups memory did not answer
	Loads     uint64 // misses the durable layer answered
	Builds    uint64 // values built by Do or filed by Put
	Evictions uint64 // values the bound pushed out of memory
	Saved     uint64 // the saved measure of every hit, summed
}

// Chain answers "have I seen this content address?" from a bounded LRU
// memory layer, then an optional durable layer, and builds a missing
// value once however many callers ask for it meanwhile. Filed values are
// shared and read-only. It is safe for concurrent use.
type Chain[K comparable, V any] struct {
	// weigh and saved project a value, under the lock: a value's share of
	// the bound, and what answering it saves (nil counts nothing).
	weigh   func(V) int64
	saved   func(V) uint64
	durable Durable[K, V]

	mu      sync.Mutex
	mem     lru[K, V]
	flights map[K]*flight[V] // builds not yet in mem
	stats   ChainStats
}

// flight is one build: the builder writes val and err, then closes done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewChain returns an empty chain holding at most bound weight in memory.
func NewChain[K comparable, V any](bound int64, weigh func(V) int64, saved func(V) uint64, durable Durable[K, V]) *Chain[K, V] {
	c := &Chain[K, V]{weigh: weigh, saved: saved, durable: durable, flights: make(map[K]*flight[V])}
	c.mem = newLRU(bound, func(K, V) { c.stats.Evictions++ })
	return c
}

// lookupLocked answers k from memory, counting a hit.
func (c *Chain[K, V]) lookupLocked(k K) (v V, ok bool) {
	if v, ok = c.mem.get(k); ok {
		c.hitLocked(v)
	}
	return v, ok
}

func (c *Chain[K, V]) hitLocked(v V) {
	c.stats.Hits++
	if c.saved != nil {
		c.stats.Saved += c.saved(v)
	}
}

// Do returns k's value from memory, else waits for the build in flight
// for k, else builds it. A build never starts once ctx is cancelled and
// never stops once started, so memory holds only finished values; a
// cancelled caller gets the zero value and no error. A failed build
// reaches its waiters and is not kept. Do never touches the durable
// layer.
func (c *Chain[K, V]) Do(ctx context.Context, k K, build func() (V, error)) (v V, err error) {
	c.mu.Lock()
	if v, ok := c.lookupLocked(k); ok {
		c.mu.Unlock()
		return v, nil
	}
	f := c.flights[k]
	if f == nil && ctx.Err() == nil {
		f = &flight[V]{done: make(chan struct{})}
		c.flights[k] = f
		c.stats.Misses++
		c.stats.Builds++
		c.mu.Unlock()
		f.val, f.err = build()
		c.mu.Lock()
		delete(c.flights, k)
		if f.err == nil {
			c.mem.put(k, f.val, c.weigh(f.val))
		}
		c.mu.Unlock()
		close(f.done)
		return f.val, f.err
	}
	c.mu.Unlock()
	if f == nil {
		return v, nil
	}
	select {
	case <-f.done:
		if f.err == nil {
			c.mu.Lock()
			c.hitLocked(f.val)
			c.mu.Unlock()
		}
		return f.val, f.err
	case <-ctx.Done():
		return v, nil
	}
}

// Get answers k from memory, else from the durable layer (read outside
// the lock), filing what it loads; loaded reports the latter. It never
// waits for a build in flight.
func (c *Chain[K, V]) Get(k K) (v V, ok, loaded bool) {
	c.mu.Lock()
	if v, ok = c.lookupLocked(k); !ok {
		c.stats.Misses++
	}
	c.mu.Unlock()
	if ok || c.durable.Load == nil {
		return v, ok, false
	}
	if v, ok = c.durable.Load(k); ok {
		c.mu.Lock()
		c.stats.Loads++
		c.mem.put(k, v, c.weigh(v))
		c.mu.Unlock()
	}
	return v, ok, ok
}

// Peek answers k from memory alone and counts only a hit: it re-checks,
// where no disk read may run, a key whose miss a Get already counted.
func (c *Chain[K, V]) Peek(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lookupLocked(k)
}

// Put files v as k's value in memory, then writes it through to the
// durable layer outside the lock.
func (c *Chain[K, V]) Put(k K, v V) {
	c.mu.Lock()
	c.stats.Builds++
	c.mem.put(k, v, c.weigh(v))
	c.mu.Unlock()
	if c.durable.Save != nil {
		c.durable.Save(k, v)
	}
}

// Stats snapshots the chain's gauges and counters.
func (c *Chain[K, V]) Stats() ChainStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries, s.Weight = len(c.mem.m)+len(c.flights), c.mem.weight
	return s
}
