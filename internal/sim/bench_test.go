package sim

import "testing"

// BenchmarkScheduleRun measures pure event scheduling + dispatch: a
// self-rescheduling closure keeps a ~512-deep queue busy, so steady-state
// cost is one heap push, one pop, and one indirect call per event, with
// no per-event allocation (the closure is built once).
func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	const depth = 512
	remaining := b.N
	var fn func()
	fn = func() {
		if remaining > 0 {
			remaining--
			e.Schedule(Time(remaining%7+1), fn)
		}
	}
	for i := 0; i < depth; i++ {
		e.Schedule(Time(i%7+1), fn)
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkStallForFastPath measures the in-place stall: a lone task
// repeatedly stalls with nothing else queued, so every StallFor takes the
// tail-dispatch fast path — no event, no unwinding.
func BenchmarkStallForFastPath(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	var t Task
	i := 0
	t.Init(e, "bench", func() {
		for i < b.N {
			i++
			if !t.StallFor(1) {
				return
			}
		}
		t.End()
	})
	t.Begin()
	b.ResetTimer()
	e.Run()
}
