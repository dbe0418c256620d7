package metrics

import (
	"math"
	"reflect"
	"testing"
)

func TestBucketUpperBounds(t *testing.T) {
	cases := []struct {
		i    int
		want uint64
	}{
		{0, 0}, {1, 1}, {2, 3}, {3, 7}, {4, 15}, {10, 1023},
		{63, 1<<63 - 1}, {64, math.MaxUint64},
	}
	for _, c := range cases {
		if got := BucketUpperBound(c.i); got != c.want {
			t.Errorf("BucketUpperBound(%d) = %d, want %d", c.i, got, c.want)
		}
	}
}

// TestBucketBoundaries pins the bucket each value lands in: bucket 0
// holds exactly 0, bucket i holds [2^(i-1), 2^i).
func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {7, 3}, {8, 4},
		{1023, 10}, {1024, 11}, {math.MaxUint64, 64},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.bucket {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.bucket)
		}
		// The bucket's inclusive upper bound must admit the value and the
		// previous bucket's must not.
		if ub := BucketUpperBound(c.bucket); ub < c.v {
			t.Errorf("value %d above its bucket %d upper bound %d", c.v, c.bucket, ub)
		}
		if c.bucket > 0 {
			if ub := BucketUpperBound(c.bucket - 1); ub >= c.v {
				t.Errorf("value %d not above bucket %d upper bound %d", c.v, c.bucket-1, ub)
			}
		}
	}
}

func TestHistogramSnapshot(t *testing.T) {
	r := New(0)
	h := r.Histogram("lat")
	for _, v := range []uint64{0, 1, 2, 3, 9} {
		h.Observe(v)
	}
	s := r.Snapshot(100)
	hs, ok := s.Histograms["lat"]
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hs.Count != 5 || hs.Sum != 15 || hs.Min != 0 || hs.Max != 9 {
		t.Errorf("count/sum/min/max = %d/%d/%d/%d", hs.Count, hs.Sum, hs.Min, hs.Max)
	}
	want := []Bucket{{Le: 0, N: 1}, {Le: 1, N: 1}, {Le: 3, N: 2}, {Le: 15, N: 1}}
	if !reflect.DeepEqual(hs.Buckets, want) {
		t.Errorf("buckets = %+v, want %+v", hs.Buckets, want)
	}
}

// TestCounterSeries pins the sampler's frame semantics: frame i covers
// [i*interval, (i+1)*interval), an event at exactly a boundary belongs
// to the following frame, and idle frames appear as zero deltas.
func TestCounterSeries(t *testing.T) {
	r := New(100)
	c := r.Counter("x")
	c.Add(50, 1)  // frame 0
	c.Add(100, 2) // exactly at the boundary: frame 1
	c.Add(199, 3) // frame 1
	c.Add(450, 4) // frame 4 (frames 2 and 3 idle)
	s := r.Snapshot(500)
	if s.Series == nil {
		t.Fatal("no series in snapshot")
	}
	if s.Series.Interval != 100 || s.Series.End != 500 || s.Series.Frames != 5 {
		t.Fatalf("interval/end/frames = %d/%d/%d", s.Series.Interval, s.Series.End, s.Series.Frames)
	}
	want := []uint64{1, 5, 0, 0, 4}
	if !reflect.DeepEqual(s.Series.Deltas["x"], want) {
		t.Errorf("deltas = %v, want %v", s.Series.Deltas["x"], want)
	}
	if s.Counters["x"] != 10 {
		t.Errorf("total = %d, want 10", s.Counters["x"])
	}
}

// TestSeriesTailFrame: a run ending mid-interval closes a partial tail
// frame covering [lastBoundary, end).
func TestSeriesTailFrame(t *testing.T) {
	r := New(100)
	c := r.Counter("x")
	c.Add(10, 1)
	c.Add(230, 2)
	s := r.Snapshot(250)
	if s.Series.Frames != 3 {
		t.Fatalf("frames = %d, want 3 (two whole + tail)", s.Series.Frames)
	}
	want := []uint64{1, 0, 2}
	if !reflect.DeepEqual(s.Series.Deltas["x"], want) {
		t.Errorf("deltas = %v, want %v", s.Series.Deltas["x"], want)
	}
}

// TestSeriesEndOnBoundary: a run ending exactly on a frame boundary has
// no tail frame.
func TestSeriesEndOnBoundary(t *testing.T) {
	r := New(100)
	c := r.Counter("x")
	c.Add(150, 7)
	s := r.Snapshot(200)
	if s.Series.Frames != 2 {
		t.Fatalf("frames = %d, want 2", s.Series.Frames)
	}
	want := []uint64{0, 7}
	if !reflect.DeepEqual(s.Series.Deltas["x"], want) {
		t.Errorf("deltas = %v, want %v", s.Series.Deltas["x"], want)
	}
}

// TestCounterBackfill: a counter created after frames have closed gets
// zero deltas for them, so all series in one registry are equal length.
func TestCounterBackfill(t *testing.T) {
	r := New(100)
	a := r.Counter("a")
	a.Add(250, 1) // closes frames 0 and 1
	b := r.Counter("b")
	b.Add(260, 5)
	s := r.Snapshot(300)
	if la, lb := len(s.Series.Deltas["a"]), len(s.Series.Deltas["b"]); la != lb {
		t.Fatalf("series lengths differ: a=%d b=%d", la, lb)
	}
	if want := []uint64{0, 0, 5}; !reflect.DeepEqual(s.Series.Deltas["b"], want) {
		t.Errorf("backfilled deltas = %v, want %v", s.Series.Deltas["b"], want)
	}
}

func TestCounterGetOrCreate(t *testing.T) {
	r := New(0)
	if r.Counter("x") != r.Counter("x") {
		t.Error("same name returned distinct counters")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Error("same name returned distinct histograms")
	}
}

// TestNilSafety: the nil registry and the nil handles it returns are
// valid no-op sinks, so instrumented hot paths never branch.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	h := r.Histogram("y")
	if c != nil || h != nil {
		t.Fatal("nil registry returned non-nil handles")
	}
	c.Add(10, 1) // must not panic
	h.Observe(5)
	if r.Snapshot(100) != nil {
		t.Error("nil registry produced a snapshot")
	}
}

func TestSnapshotCounterNames(t *testing.T) {
	r := New(0)
	r.Counter("zeta").Add(0, 1)
	r.Counter("alpha").Add(0, 1)
	r.Counter("mid").Add(0, 1)
	s := r.Snapshot(10)
	want := []string{"alpha", "mid", "zeta"}
	if got := s.CounterNames(); !reflect.DeepEqual(got, want) {
		t.Errorf("CounterNames = %v, want %v", got, want)
	}
}

func TestNoSeriesWhenIntervalZero(t *testing.T) {
	r := New(0)
	r.Counter("x").Add(123, 9)
	s := r.Snapshot(200)
	if s.Series != nil {
		t.Error("interval 0 still produced series")
	}
	if s.Counters["x"] != 9 {
		t.Errorf("total = %d, want 9", s.Counters["x"])
	}
}
