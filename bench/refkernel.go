package main

import (
	"sync"
	"time"
)

// The hosts this benchmark runs on are small shared virtual machines
// whose speed drifts: the same code, run back to back, can take a
// quarter longer for half a minute and then recover, and neither more
// repeats nor a minimum hides that (the fastest repeat drifts too).
// What does cancel it is a yardstick. Between the timed units the
// benchmark runs a small fixed program of its own — the reference
// kernel below — on the same P cores, and every timing is divided by how
// much slower than nominal the kernel ran around it. Timings therefore
// read as seconds on a host of reference speed. The kernel lives here,
// outside the measured code, so no change to the repository can move it;
// raw host seconds are printed beside every normalised number.

// refEvents is the length of one reference run per core.
const refEvents = 1_600_000

// refNominal is how long one reference sample takes on the reference
// host (2 vCPUs of a 2.1 GHz Xeon, quiet). Only ratios matter: it fixes
// the scale of "reference seconds", not any comparison.
const refNominal = 200 * time.Millisecond

type refEvent struct {
	at, seq uint64
}

// refHeap is a binary min-heap of events ordered by (at, seq).
type refHeap []refEvent

func (h refHeap) less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].seq < h[j].seq)
}

func (h *refHeap) push(e refEvent) {
	*h = append(*h, e)
	for i := len(*h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *refHeap) pop() refEvent {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	for i := 0; ; {
		l, r, m := 2*i+1, 2*i+2, i
		if l < n && h.less(l, m) {
			m = l
		}
		if r < n && h.less(r, m) {
			m = r
		}
		if m == i {
			break
		}
		(*h)[i], (*h)[m] = (*h)[m], (*h)[i]
		i = m
	}
	return top
}

// refKernel is a miniature discrete-event simulation: 256 events in
// flight, each handler touching a 1 MiB table at a pseudo-random place
// and scheduling its successor. Heap sifts, unpredictable branches,
// indirect calls and cache misses in roughly the mix the simulator has.
func refKernel(events int) uint64 {
	table := make([]uint32, 1<<18)
	h := make(refHeap, 0, 512)
	var now, seq, sum uint64
	x := uint32(12345)
	handler := func() {
		x = x*1664525 + 1013904223
		i := x >> 14
		table[i] += x
		sum += uint64(table[(i*7)&(1<<18-1)])
		if events > 0 {
			events--
			seq++
			h.push(refEvent{now + uint64(x%97+1), seq})
		}
	}
	for i := 0; i < 256; i++ {
		seq++
		h.push(refEvent{uint64(i%7 + 1), seq})
	}
	for len(h) > 0 {
		now = h.pop().at
		handler()
	}
	return sum
}

// speedometer samples the reference kernel between timed units.
type speedometer struct {
	p       int
	samples []speedSample
}

type speedSample struct {
	at time.Time // when the sample ended
	d  time.Duration
}

// sample runs the kernel once on each of the P cores at the same time
// and records how long the slowest took.
func (s *speedometer) sample() {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < s.p; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			refKernel(refEvents)
		}()
	}
	wg.Wait()
	now := time.Now()
	s.samples = append(s.samples, speedSample{at: now, d: now.Sub(t0)})
}

// sampleIfDue samples when the last sample is older than gap and returns
// how long that took, so a caller in the middle of a timed stretch can
// leave the pause out. A nil speedometer (traced passes, probes) never
// samples.
func (s *speedometer) sampleIfDue(gap time.Duration) time.Duration {
	if s == nil {
		return 0
	}
	if n := len(s.samples); n > 0 && time.Since(s.samples[n-1].at) < gap {
		return 0
	}
	t0 := time.Now()
	s.sample()
	return time.Since(t0)
}

// speedGap is the longest a timed stretch goes without a reference
// sample beside it.
const speedGap = 1500 * time.Millisecond

// speedWindow is how far either side of a timed interval its reference
// samples are taken from. Host speed wanders on every timescale; within a
// couple of seconds a handful of samples averages the jitter out without
// reaching into a different phase of the drift.
const speedWindow = 2 * time.Second

// slowdown is how much slower than nominal the host ran between from and
// to: the mean of the samples that ended within speedWindow of that
// interval (the nearest sample, should there be none), over the nominal
// sample time.
func (s *speedometer) slowdown(from, to time.Time) float64 {
	lo, hi := from.Add(-speedWindow), to.Add(speedWindow)
	var sum, nearest time.Duration
	n, gap := 0, time.Duration(-1)
	for _, sm := range s.samples {
		if !sm.at.Before(lo) && !sm.at.After(hi) {
			sum += sm.d
			n++
		}
		d := from.Sub(sm.at)
		if d < 0 {
			d = sm.at.Sub(to)
		}
		if gap < 0 || d < gap {
			gap, nearest = d, sm.d
		}
	}
	switch {
	case n > 0:
		return float64(sum) / float64(n) / float64(refNominal)
	case gap >= 0:
		return float64(nearest) / float64(refNominal)
	}
	return 1
}
