package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Spans of one figure or job share Group.
type span struct {
	ID     int
	Parent int // 0 = root
	Group  int
	Kind   string // workload | rep | round | figure | point | http
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// the untraced run: every method is a no-op.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 when untraced). group 0
// means "a new group named after this span".
func (r *recorder) begin(kind, name string, parent, group int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	if group == 0 {
		group = id
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Group: group, Kind: kind, Name: name, Start: now})
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// groupOf returns the group a span belongs to.
func (r *recorder) groupOf(id int) int {
	if r == nil || id == 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].Group
}

func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of
// that interval its child spans cover. Children may overlap one another
// (points run on P workers), so the covered part is the length of the
// union of the child intervals clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return out
}

// covered is the length of the union of the kids' intervals within
// [lo, hi].
func covered(lo, hi time.Duration, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cur := lo
	for _, k := range kids {
		a, b := k.Start, k.End
		if a < cur {
			a = cur
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// selfByKind sums self time per span kind: where, by layer boundary,
// the traced pass spent its time.
func selfByKind(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Kind] += self[s.ID]
	}
	return out
}

// chromeEvent is one Chrome trace-event ("X" complete event).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON (loadable in
// Perfetto / chrome://tracing). Each span's lane is its group, so the
// spans of one figure or job line up on one track.
func writeChrome(w io.Writer, spans []span) error {
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Kind, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Group,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "group": s.Group},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
