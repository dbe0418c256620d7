package classify

import (
	"fmt"
	"math/rand"
	"testing"
)

// diffOpBytes is the encoded size of one driver operation: selector,
// processor, block, word.
const diffOpBytes = 4

// differ drives the flat classifier and the map reference with the same
// hook stream and fails on the first count that differs.
type differ struct {
	t       testing.TB
	procs   int
	nblocks int
	c       *Classifier
	ref     *refClassifier
	step    int
	what    string
}

func newDiffer(t testing.TB, procs, nblocks int) *differ {
	return &differ{t: t, procs: procs, nblocks: nblocks, c: New(procs), ref: newRefClassifier(procs)}
}

// compare checks every observable count of the two classifiers.
func (d *differ) compare() {
	d.t.Helper()
	if got, want := d.c.Misses(), d.ref.misses; got != want {
		d.t.Fatalf("step %d (%s): Misses %v, reference %v", d.step, d.what, got, want)
	}
	if got, want := d.c.Updates(), d.ref.updates; got != want {
		d.t.Fatalf("step %d (%s): Updates %v, reference %v", d.step, d.what, got, want)
	}
	if got, want := d.c.References(), d.ref.refs; got != want {
		d.t.Fatalf("step %d (%s): References %d, reference %d", d.step, d.what, got, want)
	}
}

// apply decodes one operation and issues its hooks to both classifiers.
// Compound operations keep the documented ordering contracts: a write
// that invalidates reports LostCopy for each sharer before GlobalWrite,
// and DropDelivered is followed by LostCopy(LossDrop).
func (d *differ) apply(op [diffOpBytes]byte) {
	p := int(op[1]) % d.procs
	b := uint32(int(op[2]) % d.nblocks)
	w := int(op[3]) % wordsPerBlock
	other := (p + 1 + int(op[3]>>4)) % d.procs
	switch op[0] % 12 {
	case 0, 1:
		d.what = fmt.Sprintf("Reference(%d,%d,%d)", p, b, w)
		d.c.Reference(p, b, w)
		d.ref.Reference(p, b, w)
	case 2:
		d.what = fmt.Sprintf("Reference+Miss+Installed(%d,%d,%d)", p, b, w)
		d.c.Reference(p, b, w)
		d.ref.Reference(p, b, w)
		if got, want := d.c.Miss(p, b, w), d.ref.Miss(p, b, w); got != want {
			d.t.Fatalf("step %d (%s): Miss = %v, reference %v", d.step, d.what, got, want)
		}
		d.c.Installed(p, b)
		d.ref.Installed(p, b)
	case 3:
		d.what = fmt.Sprintf("GlobalWrite(%d,%d,%d)", p, b, w)
		d.c.GlobalWrite(p, b, w)
		d.ref.GlobalWrite(p, b, w)
	case 4:
		d.what = fmt.Sprintf("invalidating write(%d,%d,%d) sharer %d", p, b, w, other)
		if other != p {
			d.c.LostCopy(other, b, LossInvalidation)
			d.ref.LostCopy(other, b, LossInvalidation)
		}
		d.c.GlobalWrite(p, b, w)
		d.ref.GlobalWrite(p, b, w)
	case 5:
		reason := LossReason((op[3] >> 4) % 4)
		d.what = fmt.Sprintf("LostCopy(%d,%d,%d)", p, b, reason)
		d.c.LostCopy(p, b, reason)
		d.ref.LostCopy(p, b, reason)
	case 6, 7, 8:
		d.what = fmt.Sprintf("UpdateDelivered(%d,%d,%d,%d)", p, b, w, other)
		d.c.UpdateDelivered(p, b, w, other)
		d.ref.UpdateDelivered(p, b, w, other)
	case 9:
		d.what = fmt.Sprintf("DropDelivered+LostCopy(%d,%d,%d)", p, b, w)
		d.c.DropDelivered(p, b, w)
		d.ref.DropDelivered(p, b, w)
		d.c.LostCopy(p, b, LossDrop)
		d.ref.LostCopy(p, b, LossDrop)
	case 10:
		d.what = fmt.Sprintf("Installed(%d,%d)", p, b)
		d.c.Installed(p, b)
		d.ref.Installed(p, b)
	case 11:
		if op[3]&1 == 0 {
			d.what = "Upgrade"
			d.c.Upgrade()
			d.ref.Upgrade()
		} else {
			d.what = "StrayUpdate"
			d.c.StrayUpdate()
			d.ref.StrayUpdate()
		}
	}
	d.step++
	d.compare()
}

// run feeds the whole stream. Two thirds of the way in, both classifiers
// are Reset; the remainder runs on the reset state, so shadow state that
// survived the reset wrongly shows up as a later divergence.
func (d *differ) run(stream []byte) {
	n := len(stream) / diffOpBytes
	for i := 0; i < n; i++ {
		if i == 2*n/3 {
			d.what = "Reset"
			d.c.Reset()
			d.ref.Reset()
			d.compare()
		}
		d.apply([diffOpBytes]byte(stream[i*diffOpBytes:]))
	}
	d.what = "Finish"
	d.c.Finish()
	d.ref.Finish()
	d.compare()
}

// diffShapes are the (processors, blocks) shapes the differential test and
// the fuzz target draw from: few blocks make the hooks collide, 64 spread
// them over the slot tables.
var diffShapes = []struct{ procs, nblocks int }{
	{1, 1}, {1, 64}, {2, 1}, {2, 5}, {8, 3}, {8, 64}, {32, 2}, {32, 64},
}

// TestClassifierMatchesReference runs seeded random hook streams through
// the flat classifier and the map-based reference, comparing every count
// after every step, across a Reset and Finish.
func TestClassifierMatchesReference(t *testing.T) {
	for _, sh := range diffShapes {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("P%d/blocks%d/seed%d", sh.procs, sh.nblocks, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed*1000 + int64(sh.procs)*64 + int64(sh.nblocks)))
				stream := make([]byte, 3000*diffOpBytes)
				rng.Read(stream)
				newDiffer(t, sh.procs, sh.nblocks).run(stream)
			})
		}
	}
}

// FuzzClassifierAgainstReference is the same driver under the native
// fuzzer: the first byte picks the shape, the rest is the hook stream.
// The seed corpus is committed under testdata/fuzz.
func FuzzClassifierAgainstReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		sh := diffShapes[int(data[0])%len(diffShapes)]
		newDiffer(t, sh.procs, sh.nblocks).run(data[1:])
	})
}
