package trace

import (
	"strings"
	"testing"
)

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Read: "read", ReadMiss: "read-miss", Write: "write", Atomic: "atomic",
		Flush: "flush", Fence: "fence", SpinPark: "spin-park", SpinWake: "spin-wake",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if Kind(99).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestNilLogIsNoop(t *testing.T) {
	var l *Log
	l.Record(1, 0, Read, 0, 0) // must not panic
	if l.Len() != 0 || l.Total() != 0 || l.Events() != nil {
		t.Error("nil log not empty")
	}
}

func TestRecordAndEventsOrder(t *testing.T) {
	l := NewLog(8)
	for i := 0; i < 5; i++ {
		l.Record(uint64(i*10), i, Write, uint32(i*4), uint32(i))
	}
	evs := l.Events()
	if len(evs) != 5 || l.Total() != 5 {
		t.Fatalf("len %d total %d", len(evs), l.Total())
	}
	for i, e := range evs {
		if e.Time != uint64(i*10) || e.Proc != i {
			t.Fatalf("event %d out of order: %+v", i, e)
		}
	}
}

func TestRingWraps(t *testing.T) {
	l := NewLog(4)
	for i := 0; i < 10; i++ {
		l.Record(uint64(i), 0, Read, 0, uint32(i))
	}
	evs := l.Events()
	if len(evs) != 4 || l.Total() != 10 {
		t.Fatalf("len %d total %d", len(evs), l.Total())
	}
	// Last 4 events in chronological order: 6,7,8,9.
	for i, e := range evs {
		if e.Val != uint32(6+i) {
			t.Fatalf("wrapped events wrong: %+v", evs)
		}
	}
}

func TestDumpAndFilter(t *testing.T) {
	l := NewLog(8)
	l.Record(1, 0, Write, 4, 7)
	l.Record(2, 1, Read, 8, 9)
	var all, only strings.Builder
	if err := l.Dump(&all, -1); err != nil {
		t.Fatal(err)
	}
	if err := l.Dump(&only, 1); err != nil {
		t.Fatal(err)
	}
	if strings.Count(all.String(), "\n") != 2 {
		t.Errorf("dump all:\n%s", all.String())
	}
	if strings.Count(only.String(), "\n") != 1 || !strings.Contains(only.String(), "p1") {
		t.Errorf("dump filtered:\n%s", only.String())
	}
}

func TestSummary(t *testing.T) {
	l := NewLog(8)
	l.Record(1, 0, Write, 4, 7)
	l.Record(2, 0, Write, 4, 8)
	l.Record(3, 1, Atomic, 8, 9)
	s := l.Summary()
	for _, want := range []string{"write=2", "atomic=1", "3 buffered / 3 total"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}

func TestInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewLog(0) did not panic")
		}
	}()
	NewLog(0)
}

func TestEventString(t *testing.T) {
	e := Event{Time: 5, Proc: 2, Kind: Atomic, Addr: 64, Val: 3}
	s := e.String()
	for _, want := range []string{"t=5", "p2", "atomic", "a=64", "v=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
}
