package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// frameOpBytes is the encoded size of one driver operation: selector,
// two bytes of block choice, argument.
const frameOpBytes = 4

// frameShapes are the (cache bytes, block footprint) shapes the
// differential test and the fuzz target draw from. Every footprint
// exceeds the frame count, so frames wrap and evict; 24 and 1000 frames
// are not powers of two, so the modulo path runs.
var frameShapes = []struct{ bytes, footprint int }{
	{64 * 1024, 3000}, {64 * 64, 200}, {64 * 24, 100}, {64 * 1000, 2500},
}

// fired is one watcher firing: the watched block and the step that
// registered the watcher.
type fired struct {
	block uint32
	step  int
}

// frameDiffer drives the slot-table cache and the dense reference with
// the same operation stream and fails on the first answer that differs.
type frameDiffer struct {
	t         testing.TB
	c         *Cache
	ref       *refCache
	footprint int
	recent    []uint32
	got, want []fired // the current step's watcher firings
	gotValid  []Line  // ForEachValid buffers, reused across steps
	wantValid []Line
	step      int
	what      string

	// Coverage: evictions seen and the widest slot table.
	evictions, maxSlots int
}

func newFrameDiffer(t testing.TB, bytes, footprint int) *frameDiffer {
	return &frameDiffer{t: t, c: New(0, bytes), ref: newRefCache(0, bytes), footprint: footprint}
}

// block decodes a block choice: with the high bit set, one of the last
// installed blocks (so lookups hit), else any block in the footprint.
func (d *frameDiffer) block(hi, lo byte) uint32 {
	if hi&0x80 != 0 && len(d.recent) > 0 {
		return d.recent[len(d.recent)-1-int(lo)%len(d.recent)]
	}
	return uint32(int(hi)<<8|int(lo)) % uint32(d.footprint)
}

func (d *frameDiffer) fail(format string, args ...any) {
	d.t.Helper()
	d.t.Fatalf("step %d (%s): %s", d.step, d.what, fmt.Sprintf(format, args...))
}

// compare checks what a caller can read off the two caches about block,
// and, when full is set or every 64th step, the whole ForEachValid walk.
func (d *frameDiffer) compare(block uint32, full bool) {
	d.t.Helper()
	if d.c.stats != d.ref.stats {
		d.fail("stats %+v, reference %+v", d.c.stats, d.ref.stats)
	}
	if (d.c.wfn == nil) != (d.ref.wfn == nil) || d.c.Watched(block) != d.ref.Watched(block) {
		d.fail("watcher set %v (block %d), reference %v (block %d)", d.c.wfn != nil, d.c.wblock, d.ref.wfn != nil, d.ref.wblock)
	}
	if !slices.Equal(d.got, d.want) {
		d.fail("watchers fired %v, reference %v", d.got, d.want)
	}
	got, want := d.c.Lookup(block), d.ref.Lookup(block)
	if (got == nil) != (want == nil) || got != nil && *got != *want {
		d.fail("Lookup(%d) %+v, reference %+v", block, got, want)
	}
	if d.step%64 != 0 && !full {
		return // the whole-cache walk is O(frames): every 64th step suffices
	}
	d.gotValid, d.wantValid = d.gotValid[:0], d.wantValid[:0]
	d.c.ForEachValid(func(ln *Line) { d.gotValid = append(d.gotValid, *ln) })
	d.ref.ForEachValid(func(ln *Line) { d.wantValid = append(d.wantValid, *ln) })
	if !slices.Equal(d.gotValid, d.wantValid) {
		d.fail("ForEachValid\n%+v\nreference\n%+v", d.gotValid, d.wantValid)
	}
}

// apply decodes one operation and issues it to both caches.
func (d *frameDiffer) apply(op [frameOpBytes]byte) {
	b, arg := d.block(op[1], op[2]), op[3]
	d.got, d.want = d.got[:0], d.want[:0]
	switch op[0] % 11 {
	case 0, 1:
		var data [WordsPerBlock]uint32
		for i := range data {
			data[i] = uint32(d.step*WordsPerBlock + i)
		}
		state := Shared + State(arg%2)
		d.what = fmt.Sprintf("Install(%d,%v)", b, state)
		gv, ge := d.c.Install(b, data[:], state)
		wv, we := d.ref.Install(b, data[:], state)
		if gv != wv || ge != we {
			d.fail("victim %+v %v, reference %+v %v", gv, ge, wv, we)
		}
		if ge {
			d.evictions++
		}
		d.recent = append(d.recent, b)
		d.maxSlots = max(d.maxSlots, len(d.c.slot))
	case 2:
		// Protocol code writes through the pointer Lookup returns;
		// compare checks both lookups afterwards.
		d.what = fmt.Sprintf("Lookup(%d) and write", b)
		if got, want := d.c.Lookup(b), d.ref.Lookup(b); got != nil && want != nil {
			got.Counter, want.Counter = arg, arg
			got.Dirty, want.Dirty = arg&1 != 0, arg&1 != 0
		}
	case 3:
		d.what = fmt.Sprintf("Present(%d)", b)
		if got, want := d.c.Present(b), d.ref.Present(b); got != want {
			d.fail("%v, reference %v", got, want)
		}
	case 4:
		d.what = fmt.Sprintf("Victim(%d)", b)
		gv, ge := d.c.Victim(b)
		wv, we := d.ref.Victim(b)
		if gv != wv || ge != we {
			d.fail("victim %+v %v, reference %+v %v", gv, ge, wv, we)
		}
	case 5:
		d.what = fmt.Sprintf("Invalidate(%d)", b)
		gl, gw := d.c.Invalidate(b)
		wl, ww := d.ref.Invalidate(b)
		if gl != wl || gw != ww {
			d.fail("old %+v %v, reference %+v %v", gl, gw, wl, ww)
		}
	case 6:
		d.what = fmt.Sprintf("Flush(%d)", b)
		gl, gw := d.c.Flush(b)
		wl, ww := d.ref.Flush(b)
		if gl != wl || gw != ww {
			d.fail("old %+v %v, reference %+v %v", gl, gw, wl, ww)
		}
	case 7:
		w, v := int(arg)%WordsPerBlock, uint32(d.step)
		d.what = fmt.Sprintf("ApplyUpdate(%d,%d,%d)", b, w, v)
		ln, want := d.c.Lookup(b), d.ref.ApplyUpdate(b, w, v)
		if got := ln != nil; got != want {
			d.fail("present %v, reference %v", got, want)
		}
		if ln != nil {
			d.c.ApplyUpdate(ln, w, v)
		}
	case 8:
		if d.c.wfn == nil {
			d.what = fmt.Sprintf("Watch(%d)", b)
			step := d.step
			d.c.Watch(b, func() { d.got = append(d.got, fired{b, step}) })
			d.ref.Watch(b, func() { d.want = append(d.want, fired{b, step}) })
			break
		}
		fallthrough // a second Watch would panic
	case 9:
		d.what = fmt.Sprintf("FireWatchers(%d)", b)
		d.c.FireWatchers(b)
		d.ref.FireWatchers(b)
	case 10:
		if arg >= 4 {
			return // Reset is one op in ~700, so runs fill the frames first
		}
		d.what = "Reset"
		d.c.Reset()
		d.ref.Reset()
		d.recent = d.recent[:0]
	}
	d.step++
	d.compare(b, false)
}

func (d *frameDiffer) run(stream []byte) {
	for i := 0; i+frameOpBytes <= len(stream); i += frameOpBytes {
		d.apply([frameOpBytes]byte(stream[i:]))
	}
	d.compare(0, true)
}

// TestFrameTableMatchesReference runs seeded random operation streams
// through the slot-table cache and the dense reference, comparing every
// answer, watcher firing and ForEachValid sequence after every step.
func TestFrameTableMatchesReference(t *testing.T) {
	for _, sh := range frameShapes {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%dB/footprint%d/seed%d", sh.bytes, sh.footprint, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*100 + int64(sh.footprint)))
				stream := make([]byte, 6000*frameOpBytes)
				rng.Read(stream)
				d := newFrameDiffer(t, sh.bytes, sh.footprint)
				d.run(stream)
				if frames := sh.bytes / BlockBytes; d.evictions == 0 || d.maxSlots < frames/2 {
					t.Errorf("the stream no longer covers the table: %d evictions, widest %d of %d slots", d.evictions, d.maxSlots, frames)
				}
			})
		}
	}
}

// FuzzFrameTable is the same driver under the native fuzzer: the first
// byte picks the shape, the rest is the operation stream. The seeds are
// short because the fuzzer minimizes every new find, at one run of the
// stream per candidate.
func FuzzFrameTable(f *testing.F) {
	for i := range frameShapes {
		rng := rand.New(rand.NewSource(int64(i)))
		stream := make([]byte, 1+64*frameOpBytes)
		rng.Read(stream)
		stream[0] = byte(i)
		f.Add(stream)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sh := frameShapes[int(data[0])%len(frameShapes)]
		newFrameDiffer(t, sh.bytes, sh.footprint).run(data[1:])
	})
}
