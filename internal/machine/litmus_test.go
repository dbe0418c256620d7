package machine

import (
	"fmt"
	"testing"

	"coherencesim/internal/proto"
)

// Memory-model litmus tests. The simulated machine implements release
// consistency: stores retire through a write buffer and complete
// asynchronously; Fence orders them. These tests document which
// reorderings the model permits and which the fences forbid.

// TestLitmusMessagePassing: the MP pattern with a fence between data and
// flag write must never expose stale data, under every protocol.
func TestLitmusMessagePassing(t *testing.T) {
	for _, pr := range allProtocols() {
		for trial := 0; trial < 8; trial++ {
			m := newM(t, pr, 2)
			data := m.Alloc("data", 4, 0)
			flag := m.Alloc("flag", 4, 1)
			var observed uint32
			m.RunProgram(byID{{
				compute(uint64(trial * 13)), // vary interleaving
				func(p *Proc, f *Frame) OpStatus { return p.FWrite(data, 42) },
				func(p *Proc, f *Frame) OpStatus { return p.FFence() }, // release: data must be visible before flag
				func(p *Proc, f *Frame) OpStatus { return p.FWrite(flag, 1) },
			}, {
				func(p *Proc, f *Frame) OpStatus { return p.FSpinUntilEqual(flag, 1) },
				func(p *Proc, f *Frame) OpStatus { return p.FRead(data) },
				do(func(p *Proc, f *Frame) { observed = p.Ret() }),
			}})
			if observed != 42 {
				t.Fatalf("%v trial %d: MP read stale data %d", pr, trial, observed)
			}
		}
	}
}

// TestLitmusStoreBuffering: the SB pattern (Dekker) — without fences the
// write buffer permits both processors to read 0 (the non-SC outcome
// release consistency allows). With fences between the store and the
// load, at least one processor must observe the other's store.
func TestLitmusStoreBuffering(t *testing.T) {
	for _, pr := range allProtocols() {
		run := func(fence bool) (r0, r1 uint32) {
			m := newM(t, pr, 2)
			x := m.Alloc("x", 4, 0)
			y := m.Alloc("y", 4, 1)
			// Each side stores its own word, optionally fences, then
			// loads the other's.
			side := func(mine, other Addr, r *uint32) Steps {
				s := Steps{func(p *Proc, f *Frame) OpStatus { return p.FWrite(mine, 1) }}
				if fence {
					s = append(s, func(p *Proc, f *Frame) OpStatus { return p.FFence() })
				}
				return append(s,
					func(p *Proc, f *Frame) OpStatus { return p.FRead(other) },
					do(func(p *Proc, f *Frame) { *r = p.Ret() }))
			}
			m.RunProgram(byID{side(x, y, &r0), side(y, x, &r1)})
			return r0, r1
		}
		// Unfenced: the model's read bypass makes r0 == r1 == 0 expected
		// (both loads execute while the stores sit in write buffers).
		// This documents the relaxed behaviour; it is not asserted as a
		// requirement, only recorded as permitted.
		r0, r1 := run(false)
		t.Logf("%v unfenced SB: r0=%d r1=%d (0,0 is a legal RC outcome)", pr, r0, r1)

		// Fenced: both-zero must be impossible.
		r0, r1 = run(true)
		if r0 == 0 && r1 == 0 {
			t.Fatalf("%v: fenced store buffering still produced (0,0)", pr)
		}
	}
}

// TestLitmusCoherenceSameLocation: writes to a single location are
// totally ordered — after quiescence, every processor agrees on the
// final value, and no processor ever reads a value that was never
// written.
func TestLitmusCoherenceSameLocation(t *testing.T) {
	for _, pr := range allProtocols() {
		m := newM(t, pr, 4)
		x := m.Alloc("x", 4, 0)
		written := map[uint32]bool{0: true}
		for i := 1; i <= 4; i++ {
			written[uint32(i*11)] = true
		}
		bad := false
		m.RunProgram(seq(
			[]stage{
				func(p *Proc, f *Frame) OpStatus { return p.FWrite(x, uint32(p.ID()+1)*11) },
				func(p *Proc, f *Frame) OpStatus { return p.FFence() },
			},
			repeat(6,
				func(p *Proc, f *Frame) OpStatus { return p.FRead(x) },
				func(p *Proc, f *Frame) OpStatus {
					if !written[p.Ret()] {
						bad = true
					}
					return OpDone
				},
				computeBy(func(p *Proc) uint64 { return uint64(7 * (p.ID() + 1)) }),
			),
		))
		if bad {
			t.Fatalf("%v: out-of-thin-air value observed", pr)
		}
		// Agreement at quiescence.
		var vals []uint32
		m2 := m // quiesced machine
		for q := 0; q < 4; q++ {
			if ln := m2.System().Cache(q).Lookup(uint32(x / 64)); ln != nil {
				vals = append(vals, ln.Data[0])
			}
		}
		for _, v := range vals {
			if v != vals[0] {
				t.Fatalf("%v: caches disagree at quiescence: %v", pr, vals)
			}
		}
	}
}

// TestLitmusAtomicityRMW: concurrent fetch-and-adds never lose
// increments, at every machine size and protocol.
func TestLitmusAtomicityRMW(t *testing.T) {
	for _, pr := range allProtocols() {
		for _, procs := range []int{2, 16, 64} {
			t.Run(fmt.Sprintf("%v/p%d", pr, procs), func(t *testing.T) {
				m := newM(t, pr, procs)
				x := m.Alloc("x", 4, 0)
				const each = 9
				m.RunProgram(seq(repeat(each,
					func(p *Proc, f *Frame) OpStatus { return p.FFetchAdd(x, 1) },
					func(p *Proc, f *Frame) OpStatus {
						if f.I0%3 != 0 {
							return OpDone
						}
						return computeBy(func(p *Proc) uint64 { return uint64(p.Rand().Intn(20)) })(p, f)
					},
				)))
				want := uint32(procs * each)
				got := m.Peek(x)
				for q := 0; q < procs; q++ {
					if ln := m.System().Cache(q).Lookup(uint32(x / 64)); ln != nil && ln.Dirty {
						got = ln.Data[0]
					}
				}
				if got != want {
					t.Fatalf("lost updates: %d, want %d", got, want)
				}
			})
		}
	}
}

// TestLitmusReadYourWriteThroughWB: a processor's own reads see its
// buffered stores immediately (write-buffer forwarding), even before the
// protocol transaction completes.
func TestLitmusReadYourWriteThroughWB(t *testing.T) {
	for _, pr := range allProtocols() {
		m := newM(t, pr, 2)
		x := m.Alloc("x", 4, 1) // remote home: drain is slow
		ok := true
		m.RunProgram(byID{{
			func(p *Proc, f *Frame) OpStatus { return p.FWrite(x, 5) },
			func(p *Proc, f *Frame) OpStatus { return p.FRead(x) },
			do(func(p *Proc, f *Frame) {
				if p.Ret() != 5 { // must forward from the write buffer
					ok = false
				}
			}),
		}, nil})
		if !ok {
			t.Fatalf("%v: read did not observe own buffered store", pr)
		}
	}
}

var _ = proto.WI
