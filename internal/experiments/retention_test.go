package experiments

import (
	"reflect"
	"testing"

	"coherencesim/internal/machine"
	"coherencesim/internal/proto"
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

// TestPooledMachineEventStorage pins what an idle pooled machine keeps
// of its event queue after a quick-length test-and-set point under PU at
// P = 32, whose update and acknowledgement bursts fill the wheel: the
// storage follows the peak number of events in flight, at most 128 KiB,
// not a high-water mark per wheel bucket.
func TestPooledMachineEventStorage(t *testing.T) {
	runExtLock(0, proto.PU, 32, Quick().LockIterations)
	m := machine.Acquire(machine.DefaultConfig(proto.PU, 32)) // the machine the point released
	defer m.Release()
	if b := eventStorage(m); b == 0 || b > 128<<10 {
		t.Errorf("an idle pooled machine keeps %d bytes of event storage, want (0, 128 KiB]", b)
	}
}
