package workload

import (
	"reflect"
	"sync"
	"testing"

	"coherencesim/internal/proto"
)

// TestWarmForkConcurrentRuns runs one WarmLock from eight goroutines at
// once: each Run builds its own pooled machine, so every run reports the
// identical result (run it under -race).
func TestWarmForkConcurrentRuns(t *testing.T) {
	p := Params{Procs: 8, Protocol: proto.CU, Iterations: 1600, HoldCycles: 50}
	w := WarmLockLoop(p, MCS, RandomPause)
	want := w.Run()
	const forks = 8
	got := make([]LockResult, forks)
	var wg sync.WaitGroup
	for i := 0; i < forks; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = w.Run()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(want, got[i]) {
			t.Errorf("run %d differs\nfirst: %+v\nthis:  %+v", i, want, got[i])
		}
	}
}
