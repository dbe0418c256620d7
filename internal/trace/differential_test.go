package trace

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"coherencesim/internal/sim"
)

// hookOpBytes is the encoded size of one driver operation: selector, ID
// choice (or, for Begin, kind and block), argument, time step.
const hookOpBytes = 4

// hookDiffer drives the ring tracer and the map reference with the same
// hook stream and fails on the first export that differs.
type hookDiffer struct {
	t      testing.TB
	procs  int
	store  bool
	tr     *Tracer
	ref    *refTracer
	now    sim.Time
	issued []TxnID
	step   int
	what   string

	// Coverage: the widest ring seen and hooks that found another live
	// transaction in their ID's slot.
	maxRing, aliased int
}

func newHookDiffer(t testing.TB, procs, limit int, store bool) *hookDiffer {
	d := &hookDiffer{
		t: t, procs: procs, store: store, now: 1,
		tr: NewTracer(procs, limit), ref: newRefTracer(procs, limit),
	}
	if store {
		d.tr.StoreRecords()
	}
	return d
}

// compare checks everything a caller can read off the two tracers.
func (d *hookDiffer) compare() {
	d.t.Helper()
	if got, want := d.tr.Snapshot(d.now), d.ref.Snapshot(d.now); !reflect.DeepEqual(got, want) {
		d.t.Fatalf("step %d (%s): Snapshot\n%+v\nreference\n%+v", d.step, d.what, got, want)
	}
	for p := -1; p <= d.procs; p++ {
		if got, want := d.tr.LastRelease(p), d.ref.LastRelease(p); got != want {
			d.t.Fatalf("step %d (%s): LastRelease(%d) %+v, reference %+v", d.step, d.what, p, got, want)
		}
	}
	if !d.store {
		if d.tr.Spans() != nil || d.tr.Stalls() != nil {
			d.t.Fatalf("step %d (%s): a non-storing tracer stored %d spans, %d stalls", d.step, d.what, len(d.tr.Spans()), len(d.tr.Stalls()))
		}
		return
	}
	if got, want := d.tr.Spans(), d.ref.spans; !reflect.DeepEqual(got, want) {
		d.t.Fatalf("step %d (%s): Spans\n%+v\nreference\n%+v", d.step, d.what, got, want)
	}
	if got, want := d.tr.Stalls(), d.ref.stalls; !reflect.DeepEqual(got, want) {
		d.t.Fatalf("step %d (%s): Stalls\n%+v\nreference\n%+v", d.step, d.what, got, want)
	}
}

// id decodes an ID choice: below 0x80 an issued ID counted back from the
// newest (bit 6 clear) or up from the oldest (bit 6 set) — live, retired
// or with its ring slot reused; from 0x80 on, 0, a never-issued ID, an
// ID sharing the newest one's slot in a 64-, 128- or 256-slot ring, or
// an arbitrary one.
func (d *hookDiffer) id(c byte) TxnID {
	n := len(d.issued)
	if c < 0x80 {
		if n == 0 {
			return 1
		}
		i := int(c&0x3f) % n
		if c&0x40 == 0 {
			i = n - 1 - i
		}
		return d.issued[i]
	}
	k := TxnID(c & 0x7f)
	switch k % 4 {
	case 0:
		return 0
	case 1:
		return d.tr.nextID + 1 + k/4
	case 2:
		return d.tr.nextID + TxnID(64<<(k/4%3))
	}
	return k * 1000
}

// apply decodes one operation and issues it to both tracers.
func (d *hookDiffer) apply(op [hookOpBytes]byte) {
	d.now += sim.Time(op[3] % 16)
	id, arg := d.id(op[1]), op[2]
	proc := int(arg) % (d.procs + 1) // procs itself is out of range
	back := min(d.now, sim.Time(arg>>4))
	if r := d.tr.live[d.tr.slot(id)]; id != 0 && r != nil && r.span.ID != id {
		d.aliased++
	}
	switch op[0] % 12 {
	case 0, 1:
		kind, block, p := TxnKind(arg%uint8(numTxnKinds)), uint32(op[1]%48), int(arg>>3)%d.procs
		d.what = fmt.Sprintf("Begin(%d,%v,%d)", p, kind, block)
		got, want := d.tr.Begin(p, kind, block, d.now), d.ref.Begin(p, kind, block, d.now)
		if got != want {
			d.t.Fatalf("step %d (%s): ID %d, reference %d", d.step, d.what, got, want)
		}
		d.issued = append(d.issued, got)
		d.maxRing = max(d.maxRing, len(d.tr.live))
	case 2:
		d.what = fmt.Sprintf("HomeArrive(%d)", id)
		d.tr.HomeArrive(id, d.now)
		d.ref.HomeArrive(id, d.now)
	case 3:
		d.what = fmt.Sprintf("DirStart(%d)", id)
		d.tr.DirStart(id, d.now)
		d.ref.DirStart(id, d.now)
	case 4:
		fan := FanKind(1 + arg%2)
		d.what = fmt.Sprintf("Fanout(%d,%d)", id, fan)
		d.tr.Fanout(id, fan, d.now)
		d.ref.Fanout(id, fan, d.now)
	case 5:
		d.what = fmt.Sprintf("TargetAck(%d,%d)", id, proc)
		d.tr.TargetAck(id, proc, d.now-back, d.now)
		d.ref.TargetAck(id, proc, d.now-back, d.now)
	case 6:
		d.what = fmt.Sprintf("Hop(%d,%d)", id, arg%9)
		d.tr.Hop(id, int(arg%9))
		d.ref.Hop(id, int(arg%9))
	case 7:
		d.what = fmt.Sprintf("CacheTouch(%d,%d)", proc, id)
		d.tr.CacheTouch(proc, id)
		d.ref.CacheTouch(proc, id)
	case 8:
		d.what = fmt.Sprintf("Retired(%d)", id)
		d.tr.Retired(id, d.now)
		d.ref.Retired(id, d.now)
	case 9:
		d.what = fmt.Sprintf("AcksDrained(%d)", id)
		d.tr.AcksDrained(id, d.now)
		d.ref.AcksDrained(id, d.now)
	case 10:
		d.what = fmt.Sprintf("End(%d)", id)
		d.tr.End(id, d.now)
		d.ref.End(id, d.now)
	case 11:
		cat := Category(arg % uint8(CatIdle))
		d.what = fmt.Sprintf("AddStall(%d,%v,-%d,%d)+AddCompute", proc, cat, back, id)
		d.tr.AddStall(proc, cat, d.now-back, d.now, id)
		d.ref.AddStall(proc, cat, d.now-back, d.now, id)
		d.tr.AddCompute(proc, sim.Time(arg&7))
		d.ref.AddCompute(proc, sim.Time(arg&7))
	}
	d.step++
	d.compare()
}

func (d *hookDiffer) run(stream []byte) {
	for i := 0; i+hookOpBytes <= len(stream); i += hookOpBytes {
		d.apply([hookOpBytes]byte(stream[i:]))
	}
}

// hookShapes are the (processors, span limit) shapes the differential
// test and the fuzz target draw from; the small limits make both caps
// drop records.
var hookShapes = []struct{ procs, limit int }{{1, 2}, {2, 8}, {8, 0}, {32, 3}}

// TestTracerMatchesReference runs seeded random hook streams through the
// ring tracer, storing and not, and the map-based reference, comparing
// every export after every step.
func TestTracerMatchesReference(t *testing.T) {
	var maxRing, aliased int
	for _, sh := range hookShapes {
		for _, store := range []bool{true, false} {
			for seed := int64(1); seed <= 3; seed++ {
				t.Run(fmt.Sprintf("P%d/limit%d/store%v/seed%d", sh.procs, sh.limit, store, seed), func(t *testing.T) {
					rng := rand.New(rand.NewSource(seed*100 + int64(sh.procs)))
					stream := make([]byte, 3000*hookOpBytes)
					rng.Read(stream)
					d := newHookDiffer(t, sh.procs, sh.limit, store)
					d.run(stream)
					maxRing, aliased = max(maxRing, d.maxRing), aliased+d.aliased
				})
			}
		}
	}
	if maxRing <= 64 || aliased == 0 {
		t.Errorf("streams no longer cover the ring: widest %d slots, %d aliased hooks", maxRing, aliased)
	}
}

// FuzzTracerHooks is the same driver under the native fuzzer: the first
// byte picks the shape (low bits) and storage (0x80), the rest is the
// hook stream. The seed corpus is committed under testdata/fuzz.
func FuzzTracerHooks(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sh := hookShapes[int(data[0])%len(hookShapes)]
		newHookDiffer(t, sh.procs, sh.limit, data[0]&0x80 != 0).run(data[1:])
	})
}
