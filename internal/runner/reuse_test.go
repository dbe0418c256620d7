package runner

import (
	"sync"
	"testing"
)

func TestReuseGetPut(t *testing.T) {
	r := NewReuse[string, int](2)
	if _, ok := r.Get("a"); ok {
		t.Fatal("empty pool returned an object")
	}
	r.Put("a", 1)
	r.Put("a", 2)
	if v, ok := r.Get("a"); !ok || v != 2 {
		t.Fatalf("Get = %d,%v; want 2 (LIFO)", v, ok)
	}
	if v, ok := r.Get("a"); !ok || v != 1 {
		t.Fatalf("Get = %d,%v; want 1", v, ok)
	}
	if _, ok := r.Get("a"); ok {
		t.Fatal("drained key returned an object")
	}
}

func TestReuseKeysAreIndependent(t *testing.T) {
	r := NewReuse[int, string](4)
	r.Put(1, "one")
	if _, ok := r.Get(2); ok {
		t.Fatal("object leaked across keys")
	}
	if v, ok := r.Get(1); !ok || v != "one" {
		t.Fatalf("Get(1) = %q,%v", v, ok)
	}
}

func TestReuseBoundsIdlePerKey(t *testing.T) {
	r := NewReuse[string, int](2)
	r.Put("k", 1)
	r.Put("k", 2)
	r.Put("k", 3) // over the bound: dropped
	n := 0
	for {
		if _, ok := r.Get("k"); !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("pool held %d idle objects, bound is 2", n)
	}
}

func TestReuseNilSafe(t *testing.T) {
	var r *Reuse[string, int]
	if _, ok := r.Get("a"); ok {
		t.Fatal("nil pool returned an object")
	}
	r.Put("a", 1) // must not panic
}

func TestReuseConcurrentAccess(t *testing.T) {
	r := NewReuse[int, int](64)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if v, ok := r.Get(w % 3); ok {
					r.Put(w%3, v)
				} else {
					r.Put(w%3, i)
				}
			}
		}(w)
	}
	wg.Wait()
}
