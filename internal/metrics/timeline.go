package metrics

import (
	"encoding/json"
	"fmt"
	"io"

	"coherencesim/internal/sim"
)

// Timeline records per-processor state intervals (stalls, spins, sync
// waits) and point events (stores, atomics, fences) during one
// simulation, for export as a Chrome trace-event / Perfetto-compatible
// timeline. Events are appended from engine context in simulation order,
// so the recorded sequence is deterministic.
//
// A nil *Timeline is a valid no-op recorder, so the machine layer can
// thread one unconditionally.
type Timeline struct {
	slices   []TimelineSlice
	instants []TimelineInstant
}

// TimelineSlice is one closed per-processor interval.
type TimelineSlice struct {
	Proc  int
	Name  string
	Start sim.Time
	End   sim.Time
}

// TimelineInstant is one per-processor point event.
type TimelineInstant struct {
	Proc int
	Name string
	At   sim.Time
}

// NewTimeline builds an empty, unbounded timeline.
func NewTimeline() *Timeline {
	return &Timeline{}
}

// AddSlice records one interval [start, end) on proc. Safe on nil.
func (t *Timeline) AddSlice(proc int, name string, start, end sim.Time) {
	if t == nil {
		return
	}
	t.slices = append(t.slices, TimelineSlice{Proc: proc, Name: name, Start: start, End: end})
}

// AddInstant records one point event on proc. Safe on nil.
func (t *Timeline) AddInstant(proc int, name string, at sim.Time) {
	if t == nil {
		return
	}
	t.instants = append(t.instants, TimelineInstant{Proc: proc, Name: name, At: at})
}

// Len returns the number of recorded events.
func (t *Timeline) Len() int {
	if t == nil {
		return 0
	}
	return len(t.slices) + len(t.instants)
}

// Slices returns the recorded intervals in recording order (do not
// mutate).
func (t *Timeline) Slices() []TimelineSlice {
	if t == nil {
		return nil
	}
	return t.slices
}

// ChromeEvent is one Chrome trace-event object; Perfetto and
// chrome://tracing consume the JSON object format {"traceEvents": [...]}.
// Simulated cycles map 1:1 to the format's microsecond timestamps.
// Scope belongs to instants, ID and BP to flow events.
type ChromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    sim.Time       `json:"ts"`
	Dur   *sim.Time      `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat,omitempty"`
	Scope string         `json:"s,omitempty"`
	ID    string         `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// EncodeChromeTrace writes events as one trace-event document, headed
// by envelope when the caller has one (nil leaves the field out).
func EncodeChromeTrace(w io.Writer, envelope any, events []ChromeEvent) error {
	return json.NewEncoder(w).Encode(struct {
		Envelope        any           `json:"envelope,omitempty"`
		TraceEvents     []ChromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{envelope, events, "ms"})
}

// WriteChromeTrace renders the timeline in Chrome trace-event JSON.
// procs is the simulated processor count, used to emit thread-name
// metadata so Perfetto labels each track "proc N". The event order is
// the deterministic recording order; viewers sort by timestamp
// themselves.
func WriteChromeTrace(w io.Writer, t *Timeline, procs int) error {
	events := make([]ChromeEvent, 0, 2*procs+t.Len())
	events = append(events, ChromeEvent{
		Name: "process_name", Phase: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "coherencesim"},
	})
	for p := 0; p < procs; p++ {
		events = append(events, ChromeEvent{
			Name: "thread_name", Phase: "M", Pid: 0, Tid: p,
			Args: map[string]any{"name": fmt.Sprintf("proc%d", p)},
		})
	}
	if t != nil {
		for _, s := range t.slices {
			dur := s.End - s.Start
			events = append(events, ChromeEvent{
				Name: s.Name, Phase: "X", Ts: s.Start, Dur: &dur,
				Pid: 0, Tid: s.Proc, Cat: "stall",
			})
		}
		for _, i := range t.instants {
			events = append(events, ChromeEvent{
				Name: i.Name, Phase: "i", Ts: i.At,
				Pid: 0, Tid: i.Proc, Cat: "op", Scope: "t",
			})
		}
	}
	return EncodeChromeTrace(w, nil, events)
}
