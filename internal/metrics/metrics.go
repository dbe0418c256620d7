// Package metrics is the simulator's deterministic observability layer:
// a registry of named counters and log-bucketed histograms, an interval
// sampler that turns counter deltas into simulated-time series, and
// exporters (JSON documents, CSV time-series dumps, and Chrome
// trace-event timelines for Perfetto).
//
// Everything in this package is keyed to *simulated* time. A Registry
// belongs to exactly one Machine (one engine, driven by one goroutine),
// so it needs no locking, and because every mutation carries the
// simulated clock, a run's snapshot is a pure function of the simulated
// execution — byte-identical however many worker threads the experiment
// runner uses. Wall-clock observations (runner phase timings) are kept
// in a separate, explicitly opt-in Report section so the default export
// preserves that guarantee.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"

	"coherencesim/internal/sim"
)

// maxBuckets covers every power-of-two bucket a uint64 value can land
// in: bucket 0 holds exactly 0, bucket i (i >= 1) holds [2^(i-1), 2^i).
const maxBuckets = 65

// Registry is a per-machine collection of named counters and histograms
// with an optional interval sampler. The zero value is not usable;
// create with New. A nil *Registry is a valid no-op sink, as are the
// nil *Counter / *Histogram handles it returns.
type Registry struct {
	interval sim.Time // sampling interval in cycles; 0 disables series
	frameEnd sim.Time // end of the currently open frame
	frames   int      // closed frames so far

	counters []*Counter
	byName   map[string]*Counter
	hists    []*Histogram
	hByName  map[string]*Histogram
}

// New builds a registry. interval is the sampler period in simulated
// cycles; 0 disables time-series collection (counters and histograms
// still accumulate totals).
func New(interval sim.Time) *Registry {
	return &Registry{
		interval: interval,
		frameEnd: interval,
		byName:   make(map[string]*Counter),
		hByName:  make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the named counter. Returns nil —
// a valid no-op handle — on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	if c, ok := r.byName[name]; ok {
		return c
	}
	c := &Counter{r: r, name: name}
	if r.interval > 0 {
		// Back-fill frames closed before this counter existed: its
		// cumulative value at each of them was zero.
		c.series = make([]uint64, r.frames)
	}
	r.counters = append(r.counters, c)
	r.byName[name] = c
	return c
}

// Histogram returns (creating if needed) the named histogram. Returns
// nil — a valid no-op handle — on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	if h, ok := r.hByName[name]; ok {
		return h
	}
	h := &Histogram{name: name}
	r.hists = append(r.hists, h)
	r.hByName[name] = h
	return h
}

// tick closes every sample frame whose end is at or before now. An
// event at exactly a frame boundary belongs to the following frame.
func (r *Registry) tick(now sim.Time) {
	if r.interval == 0 {
		return
	}
	for r.frameEnd <= now {
		for _, c := range r.counters {
			c.series = append(c.series, c.v)
		}
		r.frames++
		r.frameEnd += r.interval
	}
}

// Counter is a monotonically increasing named quantity. When the
// registry samples, the counter also records its cumulative value at
// each frame boundary, from which per-interval deltas are exported.
// A nil *Counter ignores Add.
type Counter struct {
	r      *Registry
	name   string
	v      uint64
	series []uint64 // cumulative value at each closed frame
}

// Add increments the counter by n at simulated time now. Safe on nil.
// The frame check is inlined so the common case — sampling disabled, or
// no frame boundary crossed — is a couple of loads on top of the add.
func (c *Counter) Add(now sim.Time, n uint64) {
	if c == nil {
		return
	}
	if r := c.r; r.interval != 0 && r.frameEnd <= now {
		r.tick(now)
	}
	c.v += n
}

// Histogram accumulates value observations into power-of-two buckets:
// bucket 0 holds exactly the value 0, bucket i (i >= 1) holds values in
// [2^(i-1), 2^i) — i.e. values whose bit length is i. A nil *Histogram
// ignores Observe.
type Histogram struct {
	name     string
	count    uint64
	sum      uint64
	min, max uint64
	buckets  [maxBuckets]uint64
}

// bucketOf maps a value to its bucket index (its bit length).
func bucketOf(v uint64) int { return bits.Len64(v) }

// BucketUpperBound returns the largest value bucket i admits (inclusive).
// Bucket 0 admits only 0; bucket 64 tops out at MaxUint64.
func BucketUpperBound(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Observe records one value. Safe on nil.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

// Bucket is one non-empty histogram bucket in export form. Le is the
// inclusive upper bound of the bucket's value range.
type Bucket struct {
	Le uint64 `json:"le"`
	N  uint64 `json:"n"`
}

// HistogramSnapshot is a histogram's serializable state.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Min     uint64   `json:"min"`
	Max     uint64   `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// SeriesSnapshot is the sampler's serializable state: per-counter
// per-interval deltas. Frame i covers simulated time
// [i*Interval, (i+1)*Interval); the final frame may be a partial tail
// ending at End.
type SeriesSnapshot struct {
	Interval uint64              `json:"interval"`
	Frames   int                 `json:"frames"`
	End      uint64              `json:"end"`
	Deltas   map[string][]uint64 `json:"deltas"`
}

// Snapshot is a registry's full serializable state at the end of a run.
type Snapshot struct {
	Cycles     uint64                       `json:"cycles"`
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Series     *SeriesSnapshot              `json:"series,omitempty"`
}

// Snapshot captures the registry's state for a run that ended at
// simulated time end. It closes every whole sample frame, appends a
// partial tail frame if the run ended mid-interval, and returns a
// self-contained, JSON-marshalable document. Safe on nil (returns nil).
func (r *Registry) Snapshot(end sim.Time) *Snapshot {
	if r == nil {
		return nil
	}
	r.tick(end) // close frames ending at or before the final cycle
	s := &Snapshot{
		Cycles:   end,
		Counters: make(map[string]uint64, len(r.counters)),
	}
	for _, c := range r.counters {
		s.Counters[c.name] = c.v
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for _, h := range r.hists {
			hs := HistogramSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
			for i, n := range h.buckets {
				if n > 0 {
					hs.Buckets = append(hs.Buckets, Bucket{Le: BucketUpperBound(i), N: n})
				}
			}
			s.Histograms[h.name] = hs
		}
	}
	if r.interval > 0 {
		frames := r.frames
		tail := end > sim.Time(frames)*r.interval
		if tail {
			frames++
		}
		ss := &SeriesSnapshot{
			Interval: r.interval,
			Frames:   frames,
			End:      end,
			Deltas:   make(map[string][]uint64, len(r.counters)),
		}
		for _, c := range r.counters {
			deltas := make([]uint64, 0, frames)
			prev := uint64(0)
			for _, cum := range c.series {
				deltas = append(deltas, cum-prev)
				prev = cum
			}
			if tail {
				deltas = append(deltas, c.v-prev)
			}
			ss.Deltas[c.name] = deltas
		}
		s.Series = ss
	}
	return s
}

// CounterNames returns the snapshot's counter names sorted, for
// deterministic iteration.
func (s *Snapshot) CounterNames() []string {
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// String summarizes a snapshot in one line (diagnostics).
func (s *Snapshot) String() string {
	return fmt.Sprintf("metrics: %d cycles, %d counters, %d histograms",
		s.Cycles, len(s.Counters), len(s.Histograms))
}
