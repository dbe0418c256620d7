package trace

import (
	"bytes"
	"encoding/json"
	"sort"
	"testing"
)

// parsedEvent mirrors the trace-event fields the tests inspect.
type parsedEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Ts    uint64         `json:"ts"`
	Dur   uint64         `json:"dur"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Cat   string         `json:"cat"`
	Scope string         `json:"s"`
	Args  map[string]any `json:"args"`
}

func exportTimeline(t *testing.T, tr *Tracer, ops *Log) []parsedEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTimeline(&buf, tr, ops, "WI"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []parsedEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	return doc.TraceEvents
}

// TestChromeTraceStructure: one process and one thread name per
// processor, every stall a slice carrying its reason, and the operation
// log's atomics, fences, flushes and spin wake-ups as thread-scoped
// instants (reads and writes stay out).
func TestChromeTraceStructure(t *testing.T) {
	tr := NewTracer(2, 8).StoreRecords()
	tr.AddStall(0, CatReadMiss, "read-stall", 10, 30, 0)
	tr.AddStall(1, CatLockWait, "spin-wait", 5, 50, 0)
	tr.AddStall(0, CatLockWait, "spin-wait", 40, 45, 0)
	ops := NewLog(8)
	ops.Record(20, 1, Atomic, 64, 1)
	ops.Record(21, 1, Read, 64, 1)
	ops.Record(22, 1, Write, 64, 2)
	ops.Record(23, 1, Flush, 64, 0)
	ops.Record(24, 1, Fence, 0, 0)
	ops.Record(40, 0, SpinPark, 64, 0)
	ops.Record(46, 0, SpinWake, 64, 0)
	events := exportTimeline(t, tr, ops)

	var meta, slices, instants []parsedEvent
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
	if len(meta) != 3 {
		t.Fatalf("metadata events = %d, want 3", len(meta))
	}
	names := map[string]bool{}
	for _, e := range meta {
		names[e.Args["name"].(string)] = true
	}
	for _, want := range []string{"coherencesim transactions", "proc 0", "proc 1"} {
		if !names[want] {
			t.Errorf("metadata name %q missing", want)
		}
	}
	if len(slices) != 3 || len(instants) != 4 {
		t.Fatalf("slices/instants = %d/%d, want 3/4", len(slices), len(instants))
	}
	for i, want := range []string{"read-stall", "spin-wait", "spin-wait"} {
		if s := slices[i]; s.Cat != "stall" || s.Pid != 0 || s.Args["reason"] != want {
			t.Errorf("slice %d: cat %q pid %d reason %v, want stall, 0, %s", i, s.Cat, s.Pid, s.Args["reason"], want)
		}
	}
	if slices[0].Ts != 10 || slices[0].Dur != 20 || slices[0].Name != "read-miss" {
		t.Errorf("slice 0 = %s %d/%d, want read-miss 10/20", slices[0].Name, slices[0].Ts, slices[0].Dur)
	}
	for i, want := range []parsedEvent{
		{Name: "atomic", Ts: 20, Tid: 1}, {Name: "flush", Ts: 23, Tid: 1},
		{Name: "fence", Ts: 24, Tid: 1}, {Name: "spin-wake", Ts: 46, Tid: 0},
	} {
		if e := instants[i]; e.Name != want.Name || e.Ts != want.Ts || e.Tid != want.Tid || e.Scope != "t" {
			t.Errorf("instant %d = %+v, want %s at %d on %d, scope t", i, e, want.Name, want.Ts, want.Tid)
		}
	}
}

// TestChromeTraceSlicesNestPerProc: on each processor track, exported
// stall slices must be disjoint or strictly nested — partial overlaps
// render as corrupt timelines in Perfetto. The machine emits stalls
// sequentially, so this holds by construction; the test guards the
// writer against reordering or merging tracks.
func TestChromeTraceSlicesNestPerProc(t *testing.T) {
	tr := NewTracer(2, 8).StoreRecords()
	// proc 0: disjoint slices; proc 1: nested slices.
	tr.AddStall(0, CatReadMiss, "a", 0, 10, 0)
	tr.AddStall(0, CatReadMiss, "b", 10, 25, 0)
	tr.AddStall(1, CatReadMiss, "outer", 0, 100, 0)
	tr.AddStall(1, CatReadMiss, "inner", 20, 40, 0)
	events := exportTimeline(t, tr, nil)

	byTid := map[int][]parsedEvent{}
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
		var stack []parsedEvent
		for _, e := range evs {
			for len(stack) > 0 && stack[len(stack)-1].Ts+stack[len(stack)-1].Dur <= e.Ts {
				stack = stack[:len(stack)-1]
			}
			if len(stack) > 0 {
				top := stack[len(stack)-1]
				if e.Ts+e.Dur > top.Ts+top.Dur {
					t.Errorf("tid %d: slice %v [%d,%d) partially overlaps %v [%d,%d)",
						tid, e.Args["reason"], e.Ts, e.Ts+e.Dur, top.Args["reason"], top.Ts, top.Ts+top.Dur)
				}
			}
			stack = append(stack, e)
		}
	}
}

// TestChromeTraceEmptyTimeline: a storing tracer that saw nothing still
// writes a loadable document, with only the metadata in it.
func TestChromeTraceEmptyTimeline(t *testing.T) {
	events := exportTimeline(t, NewTracer(1, 0).StoreRecords(), nil)
	if len(events) != 2 {
		t.Errorf("empty timeline events = %d, want 2 metadata", len(events))
	}
	for _, e := range events {
		if e.Phase != "M" {
			t.Errorf("empty timeline exported non-metadata event %+v", e)
		}
	}
}
