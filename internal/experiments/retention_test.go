package experiments

import (
	"reflect"
	"testing"

	"coherencesim/internal/machine"
	"coherencesim/internal/proto"
	"coherencesim/internal/workload"
)

// eventStorage is the bytes of event storage m's engine keeps between
// runs: the capacity of its slot arena and of its overflow heap. Both
// are the engine's own business, so they are read by reflection.
func eventStorage(m *machine.Machine) int {
	pq := reflect.ValueOf(m).Elem().FieldByName("e").Elem().FieldByName("pq")
	n := 0
	for _, s := range []reflect.Value{pq.FieldByName("slots"), pq.FieldByName("overflow").FieldByName("ev")} {
		n += s.Cap() * int(s.Type().Elem().Size())
	}
	return n
}

// cacheStorage is the bytes of line storage m's caches keep between
// runs: the capacity of every array a cache holds, read by reflection
// for the same reason as eventStorage.
func cacheStorage(m *machine.Machine) int {
	n := 0
	for p := 0; p < m.Procs(); p++ {
		c := reflect.ValueOf(m.System().Cache(p)).Elem()
		for i := 0; i < c.NumField(); i++ {
			if f := c.Field(i); f.Kind() == reflect.Slice {
				n += f.Cap() * int(f.Type().Elem().Size())
			}
		}
	}
	return n
}

// TestPooledMachineCacheStorage pins what an idle pooled machine keeps
// of its caches after a quick-length dissemination-barrier point under
// WI at P = 32. The barrier puts each processor's per-round flags on
// blocks of their own, so a cache's highest frame is far above the few
// dozen it touches: storage follows the lines installed, at most
// 256 KiB for the machine, not a full line per frame below the highest.
func TestPooledMachineCacheStorage(t *testing.T) {
	p := workload.DefaultBarrierParams(proto.WI, 32)
	p.Iterations = Quick().BarrierEpisodes
	workload.BarrierLoop(p, workload.Dissemination)
	m := machine.Acquire(machine.DefaultConfig(proto.WI, 32)) // the machine the point released
	defer m.Release()
	if b := cacheStorage(m); b == 0 || b > 256<<10 {
		t.Errorf("an idle pooled machine keeps %d bytes of cache storage, want (0, 256 KiB]", b)
	}
}

// TestPooledMachineEventStorage pins what an idle pooled machine keeps
// of its event queue after a quick-length test-and-set point under PU at
// P = 32, whose update and acknowledgement bursts fill the wheel: the
// storage follows the peak number of events in flight, at most 128 KiB,
// not a high-water mark per wheel bucket.
func TestPooledMachineEventStorage(t *testing.T) {
	p := workload.DefaultLockParams(proto.PU, 32)
	p.Iterations = Quick().LockIterations
	workload.LockLoop(p, workload.TAS)
	m := machine.Acquire(machine.DefaultConfig(proto.PU, 32)) // the machine the point released
	defer m.Release()
	if b := eventStorage(m); b == 0 || b > 128<<10 {
		t.Errorf("an idle pooled machine keeps %d bytes of event storage, want (0, 128 KiB]", b)
	}
}
