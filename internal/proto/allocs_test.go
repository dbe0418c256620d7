package proto

import (
	"fmt"
	"testing"
)

// These tests pin the zero-allocation property of the memory-system data
// path: once the pooled transaction objects, payload frames, and engine
// capacity are warm, the protocol hot paths must not allocate at all.
// AllocsPerRun averages over many runs, so any per-operation allocation
// shows up as a non-zero figure.

func TestReadHitZeroAllocs(t *testing.T) {
	ts := newTest(t, WI, 2)
	var got uint32
	done := func(v uint32) { got = v }
	// Cold miss installs the line and warms every pool.
	ts.s.Read(0, 0, done)
	ts.e.Run()
	if avg := testing.AllocsPerRun(200, func() {
		ts.s.Read(0, 0, done)
	}); avg != 0 {
		t.Fatalf("read hit allocates %.2f objects/op, want 0", avg)
	}
	_ = got
}

func TestBlockFetchInstallZeroAllocs(t *testing.T) {
	for _, pr := range []Protocol{WI, PU, CU} {
		t.Run(fmt.Sprint(pr), func(t *testing.T) {
			ts := newTest(t, pr, 4)
			rdDone := func(uint32) {}
			// One remote read miss (block 0 is homed at node 0, the
			// requester is node 1) followed by a flush, so the next
			// iteration misses again: the full fetch/install/writeback
			// message chain runs every time.
			iter := func() {
				ts.s.Read(1, 0, rdDone)
				ts.e.Run()
				ts.s.FlushBlock(1, 0)
				ts.e.Run()
			}
			// Warm pools: transaction objects, payload frames, mesh
			// flits, directory entries, classifier state, engine heap.
			for i := 0; i < 3; i++ {
				iter()
			}
			if avg := testing.AllocsPerRun(100, iter); avg != 0 {
				t.Fatalf("%v: block fetch/install allocates %.2f objects/op, want 0", pr, avg)
			}
		})
	}
}

func TestWriteAndAtomicSteadyStateZeroAllocs(t *testing.T) {
	for _, pr := range []Protocol{WI, PU, CU} {
		t.Run(fmt.Sprint(pr), func(t *testing.T) {
			ts := newTest(t, pr, 4)
			retire := func() {}
			atDone := func(uint32) {}
			v := uint32(0)
			// Each input is one write by node 1 and one atomic by node 2
			// on block 0, each run to quiescence. The miss input flushes
			// the issuer's copy first, so under PU/CU the write is a
			// write-allocate miss and the atomic's reply carries the
			// block.
			op := func(flush bool, p int, do func()) {
				if flush {
					ts.s.FlushBlock(p, 0)
					ts.e.Run()
					if ts.s.Cache(p).Present(0) {
						t.Fatalf("%v: node %d still caches block 0 after its flush", pr, p)
					}
				}
				do()
				ts.e.Run()
			}
			inputs := []struct {
				name  string
				flush bool
			}{{"hit", false}}
			if pr != WI {
				inputs = append(inputs, struct {
					name  string
					flush bool
				}{"miss", true})
			}
			for _, in := range inputs {
				iter := func() {
					v++
					op(in.flush, 1, func() { ts.s.Write(1, 0, v, retire) })
					op(in.flush, 2, func() { ts.s.Atomic(2, 0, FetchAdd, 1, 0, atDone) })
				}
				for i := 0; i < 3; i++ {
					iter()
				}
				if avg := testing.AllocsPerRun(100, iter); avg != 0 {
					t.Fatalf("%v: %s write/atomic path allocates %.2f objects/op, want 0", pr, in.name, avg)
				}
			}
		})
	}
}
