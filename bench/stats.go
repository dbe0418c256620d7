package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// percentile returns the nearest-rank p-th percentile of xs (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(len(s), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// sorted samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9)) // 99.9 % of 10000 is 9990, not 9990.000000000002
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// tailLadder is the set of percentiles a timing may be reported at.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile returns the highest percentile of the ladder that still
// has at least minBeyond samples beyond it, and its value. ok is false
// when even the median has fewer than minBeyond samples above it.
func tailPercentile(xs []float64) (p, v float64, ok bool) {
	n := len(xs)
	for _, cand := range tailLadder {
		if n-rankOf(n, cand) < minBeyond {
			break
		}
		p, ok = cand, true
	}
	if !ok {
		return 0, 0, false
	}
	return p, percentile(xs, p), true
}

// timing is the report form of a set of duration samples: the median,
// the tail percentile the sample count supports, and the count.
type timing struct {
	Median float64 `json:"median"`
	TailP  float64 `json:"tail_percentile,omitempty"`
	Tail   float64 `json:"tail,omitempty"`
	N      int     `json:"n"`
}

func summarize(xs []float64) timing {
	t := timing{Median: median(xs), N: len(xs)}
	if p, v, ok := tailPercentile(xs); ok {
		t.TailP, t.Tail = p, v
	}
	return t
}

func (t timing) String() string {
	if t.TailP == 0 || t.TailP == 50 { // no tail beyond the median to show
		return fmt.Sprintf("p50=%.6g n=%d", t.Median, t.N)
	}
	return fmt.Sprintf("p50=%.6g p%g=%.6g n=%d", t.Median, t.TailP, t.Tail, t.N)
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// scaled returns xs multiplied by k (unit conversion).
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// perOp times fn(n) with a growing n until one call fills at least half
// the budget and returns that call's nanoseconds per operation. fn is
// timed whole, so any set-up it does must be negligible against n
// operations.
func perOp(budget time.Duration, fn func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		d := time.Since(t0)
		if d >= budget/2 || n >= 1<<30 {
			return float64(d.Nanoseconds()) / float64(n)
		}
		switch {
		case d < time.Millisecond:
			n *= 10
		default:
			grow := float64(budget) / float64(d)
			if grow > 100 {
				grow = 100
			}
			if grow < 1.5 {
				grow = 1.5
			}
			n = int(float64(n) * grow)
		}
	}
}
