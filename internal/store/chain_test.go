package store

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
)

// chainModel is the reference a Chain[int, int] is checked against: a
// map, a recency slice and the counters, written for clarity. A value v
// weighs v%16, saves v, and fails to build when v%5 == 0.
type chainModel struct {
	bound  int64
	order  []int // keys in memory, most recent first
	mem    map[int]int
	disk   map[int]int // the durable layer; nil when there is none
	weight int64
	stats  ChainStats
}

func (m *chainModel) touch(k int) {
	m.order = append([]int{k}, slices.DeleteFunc(m.order, func(o int) bool { return o == k })...)
}

func (m *chainModel) hit(k int) int {
	m.touch(k)
	m.stats.Hits++
	m.stats.Saved += uint64(m.mem[k])
	return m.mem[k]
}

func (m *chainModel) file(k, v int) {
	if old, ok := m.mem[k]; ok {
		m.weight -= int64(old % 16)
	}
	m.touch(k)
	m.mem[k] = v
	m.weight += int64(v % 16)
	for m.bound > 0 && m.weight > m.bound && len(m.order) > 1 {
		last := m.order[len(m.order)-1]
		m.order = m.order[:len(m.order)-1]
		m.weight -= int64(m.mem[last] % 16)
		delete(m.mem, last)
		m.stats.Evictions++
	}
}

// order lists the chain's memory keys, most recent first.
func (c *Chain[K, V]) order() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []K
	for el := c.mem.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*lruEntry[K, V]).key)
	}
	return keys
}

var errBuild = errors.New("build failed")

// FuzzChain runs random sequences of Get, Peek, Put, Do and writes that
// bypass memory (another process's, seen after a restart) against
// chainModel. After every step the answers, every counter, the weight
// bound, keep-the-newest and the LRU order must agree.
func FuzzChain(f *testing.F) {
	f.Add([]byte{0, 1, 2, 1, 7, 3, 1, 9, 0, 1, 7})
	f.Add([]byte{20, 1, 2, 0, 15, 2, 1, 14, 3, 2, 5, 0, 0, 0, 4, 3, 11, 1, 3, 0})
	f.Add([]byte{3, 0, 2, 4, 15, 2, 5, 14, 2, 6, 13, 0, 4, 0, 1, 5, 1})
	f.Add([]byte{2, 1, 3, 1, 1, 3, 0, 1, 3, 1, 1, 2, 2, 1, 0, 0, 0, 1, 1, 0}) // a hit refreshes: Put evicts 0, not 1
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		m := &chainModel{bound: int64(data[0] % 40), mem: map[int]int{}}
		var durable Durable[int, int]
		if data[1]&1 == 1 {
			m.disk = map[int]int{}
			durable.Load = func(k int) (int, bool) { v, ok := m.disk[k]; return v, ok }
			durable.Save = func(k, v int) { m.disk[k] = v }
		}
		c := NewChain(m.bound, func(v int) int64 { return int64(v % 16) }, func(v int) uint64 { return uint64(v) }, durable)
		var trace []string
		for ops := data[2:]; len(ops) >= 3; ops = ops[3:] {
			op, k, v := ops[0]%5, int(ops[1]%8), int(ops[2])
			var got, want any
			switch op {
			case 0:
				trace = append(trace, fmt.Sprintf("Get(%d)", k))
				gv, ok, loaded := c.Get(k)
				got = []any{gv, ok, loaded}
				if _, held := m.mem[k]; held {
					want = []any{m.hit(k), true, false}
					break
				}
				m.stats.Misses++
				want = []any{gv, false, false} // the value of a miss is unspecified
				if dv, stored := m.disk[k]; stored {
					m.stats.Loads++
					m.file(k, dv)
					want = []any{dv, true, true}
				}
			case 1:
				trace = append(trace, fmt.Sprintf("Peek(%d)", k))
				gv, ok := c.Peek(k)
				got = []any{gv, ok}
				if _, held := m.mem[k]; held {
					want = []any{m.hit(k), true}
				} else {
					want = []any{gv, false}
				}
			case 2:
				trace = append(trace, fmt.Sprintf("Put(%d, %d)", k, v))
				c.Put(k, v)
				m.stats.Builds++
				m.file(k, v)
				if m.disk != nil {
					m.disk[k] = v
				}
			case 3:
				trace = append(trace, fmt.Sprintf("Do(%d, %d)", k, v))
				built := false
				gv, err := c.Do(context.Background(), k, func() (int, error) {
					built = true
					if v%5 == 0 {
						return v, errBuild
					}
					return v, nil
				})
				got = []any{gv, err, built}
				switch _, held := m.mem[k]; {
				case held:
					want = []any{m.hit(k), nil, false}
				case v%5 == 0:
					m.stats.Misses++
					m.stats.Builds++
					want = []any{v, errBuild, true}
				default:
					m.stats.Misses++
					m.stats.Builds++
					m.file(k, v)
					want = []any{v, nil, true}
				}
			case 4:
				if m.disk == nil {
					continue
				}
				trace = append(trace, fmt.Sprintf("disk[%d] = %d", k, v))
				m.disk[k] = v
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: got %v, want %v", trace, got, want)
			}
			st := c.Stats()
			wantStats := m.stats
			wantStats.Entries, wantStats.Weight = len(m.mem), m.weight
			if st != wantStats {
				t.Fatalf("%v: stats %+v, want %+v", trace, st, wantStats)
			}
			if m.bound > 0 && st.Weight > m.bound && st.Entries > 1 {
				t.Fatalf("%v: %d entries weigh %d, over the bound %d", trace, st.Entries, st.Weight, m.bound)
			}
			if order := c.order(); !slices.Equal(order, m.order) {
				t.Fatalf("%v: recency %v, want %v", trace, order, m.order)
			}
		}
	})
}

// TestChainDoBuildsEachKeyOnce: concurrent callers of Do for the same key
// share one build, and every caller gets its value.
func TestChainDoBuildsEachKeyOnce(t *testing.T) {
	c := NewChain(0, func(int) int64 { return 1 }, nil, Durable[int, int]{})
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			k := g % 4
			v, err := c.Do(context.Background(), k, func() (int, error) {
				time.Sleep(time.Millisecond) // long enough for the others to arrive
				return 100 + k, nil
			})
			if err != nil || v != 100+k {
				t.Errorf("Do(%d) = %d, %v; want %d", k, v, err, 100+k)
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if st := c.Stats(); st.Builds != 4 || st.Hits != 12 || st.Entries != 4 {
		t.Errorf("stats %+v; want 4 builds, 12 hits, 4 entries", st)
	}
}

// TestChainDoCancelled: a cancelled caller never starts a build and
// leaves nothing behind, and a waiter that gives up does not disturb the
// build it waited on.
func TestChainDoCancelled(t *testing.T) {
	c := NewChain(0, func(int) int64 { return 1 }, nil, Durable[int, int]{})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if v, err := c.Do(cancelled, 1, func() (int, error) {
		t.Error("a cancelled caller built")
		return 0, nil
	}); v != 0 || err != nil {
		t.Errorf("cancelled Do = %d, %v; want the zero value", v, err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Builds != 0 {
		t.Errorf("a cancelled Do left %+v", st)
	}

	started, release := make(chan struct{}), make(chan struct{})
	done := make(chan int)
	go func() {
		v, _ := c.Do(context.Background(), 2, func() (int, error) {
			close(started)
			<-release
			return 7, nil
		})
		done <- v
	}()
	<-started
	if v, err := c.Do(cancelled, 2, func() (int, error) {
		t.Error("a waiter built")
		return 0, nil
	}); v != 0 || err != nil {
		t.Errorf("cancelled waiter = %d, %v; want the zero value", v, err)
	}
	close(release)
	if v := <-done; v != 7 {
		t.Errorf("the builder got %d, want 7", v)
	}
	if v, ok := c.Peek(2); !ok || v != 7 {
		t.Errorf("after the build Peek = %d, %v; want 7", v, ok)
	}
}
