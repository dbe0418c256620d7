package runner

import "sync"

// Reuse is a keyed free list of expensive-to-build objects (simulated
// machines) shared across a sweep's workers. Objects with the same key
// are interchangeable after a reset; Get hands out a previously
// released object when one is available, and Put returns one for later
// reuse. The zero value is not usable — construct with NewReuse.
//
// The pool is deliberately dumb: it never constructs or resets objects
// itself (the caller validates compatibility and resets before use),
// and it bounds the number of idle objects per key so a sweep over many
// configurations cannot pin unbounded memory.
type Reuse[K comparable, T any] struct {
	mu     sync.Mutex
	idle   map[K][]T
	perKey int
}

// NewReuse builds a pool keeping at most perKey idle objects per key
// (values <= 0 select a default of 4, enough to keep every worker of a
// typical sweep warm without hoarding).
func NewReuse[K comparable, T any](perKey int) *Reuse[K, T] {
	if perKey <= 0 {
		perKey = 4
	}
	return &Reuse[K, T]{idle: make(map[K][]T), perKey: perKey}
}

// Get removes and returns an idle object for key, reporting false when
// none is cached.
func (r *Reuse[K, T]) Get(key K) (T, bool) {
	var zero T
	if r == nil {
		return zero, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	list := r.idle[key]
	if len(list) == 0 {
		return zero, false
	}
	v := list[len(list)-1]
	list[len(list)-1] = zero
	r.idle[key] = list[:len(list)-1]
	return v, true
}

// Put returns an object to the pool for key. When the key's idle list
// is full the object is dropped (garbage collected), keeping the pool's
// footprint bounded.
func (r *Reuse[K, T]) Put(key K, v T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.idle[key]) >= r.perKey {
		return
	}
	r.idle[key] = append(r.idle[key], v)
}
