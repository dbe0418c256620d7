package metrics

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
)

// chromeEvent mirrors the trace-event fields the tests inspect.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    uint64         `json:"ts"`
	Dur   uint64         `json:"dur"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Args  map[string]any `json:"args"`
}

func exportTimeline(t *testing.T, tl *Timeline, procs int) []chromeEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tl, procs); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	return doc.TraceEvents
}

func TestChromeTraceStructure(t *testing.T) {
	tl := NewTimeline()
	tl.AddSlice(0, "read-stall", 10, 30)
	tl.AddSlice(1, "spin-wait", 5, 50)
	tl.AddSlice(0, "spin-wait", 40, 45)
	tl.AddInstant(1, "atomic", 20)
	events := exportTimeline(t, tl, 2)

	var meta, slices, instants []chromeEvent
	for _, e := range events {
		switch e.Phase {
		case "M":
			meta = append(meta, e)
		case "X":
			slices = append(slices, e)
		case "i":
			instants = append(instants, e)
		default:
			t.Errorf("unexpected phase %q", e.Phase)
		}
	}
	// One process_name plus one thread_name per processor.
	if len(meta) != 3 {
		t.Fatalf("metadata events = %d, want 3", len(meta))
	}
	names := map[string]bool{}
	for _, e := range meta {
		names[e.Args["name"].(string)] = true
	}
	for _, want := range []string{"coherencesim", "proc0", "proc1"} {
		if !names[want] {
			t.Errorf("metadata name %q missing", want)
		}
	}
	if len(slices) != 3 || len(instants) != 1 {
		t.Fatalf("slices/instants = %d/%d, want 3/1", len(slices), len(instants))
	}
	for _, e := range slices {
		if e.Pid != 0 {
			t.Errorf("slice pid = %d, want 0", e.Pid)
		}
	}
	// Slice durations must match the recorded intervals.
	if slices[0].Ts != 10 || slices[0].Dur != 20 {
		t.Errorf("slice 0 ts/dur = %d/%d, want 10/20", slices[0].Ts, slices[0].Dur)
	}
}

// TestChromeTraceSlicesNestPerProc: on each processor track, exported
// slices must be disjoint or strictly nested — partial overlaps render
// as corrupt timelines in Perfetto. The machine emits stall slices
// sequentially, so this holds by construction; the test guards the
// exporter against reordering or merging tracks.
func TestChromeTraceSlicesNestPerProc(t *testing.T) {
	tl := NewTimeline()
	// proc 0: disjoint slices; proc 1: nested slices.
	tl.AddSlice(0, "a", 0, 10)
	tl.AddSlice(0, "b", 10, 25)
	tl.AddSlice(1, "outer", 0, 100)
	tl.AddSlice(1, "inner", 20, 40)
	events := exportTimeline(t, tl, 2)

	byTid := map[int][]chromeEvent{}
	for _, e := range events {
		if e.Phase == "X" {
			byTid[e.Tid] = append(byTid[e.Tid], e)
		}
	}
	if len(byTid) != 2 {
		t.Fatalf("tracks = %d, want 2", len(byTid))
	}
	for tid, evs := range byTid {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Ts+evs[i].Dur > evs[j].Ts+evs[j].Dur
		})
		var stack []chromeEvent
		for _, e := range evs {
			for len(stack) > 0 && stack[len(stack)-1].Ts+stack[len(stack)-1].Dur <= e.Ts {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				if e.Ts+e.Dur > top.Ts+top.Dur {
					t.Errorf("tid %d: slice %q [%d,%d) partially overlaps %q [%d,%d)",
						tid, e.Name, e.Ts, e.Ts+e.Dur, top.Name, top.Ts, top.Ts+top.Dur)
				}
			}
			stack = append(stack, e)
		}
	}
}

func TestChromeTraceEmptyTimeline(t *testing.T) {
	events := exportTimeline(t, NewTimeline(), 1)
	for _, e := range events {
		if e.Phase != "M" {
			t.Errorf("empty timeline exported non-metadata event %+v", e)
		}
	}
	// A nil timeline must also export a loadable document.
	events = exportTimeline(t, nil, 1)
	if len(events) != 2 {
		t.Errorf("nil timeline events = %d, want 2 metadata", len(events))
	}
}
