package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"coherencesim/internal/sim"
)

// This file exports a traced run as one Chrome trace-event / Perfetto
// document: the retained transaction spans with their fan-out legs,
// every attributed processor stall with a flow arrow from the
// transaction that released it (so the UI draws the causal link from a
// coherence transaction's completion to the processor it woke), and the
// operation log's atomics, fences, flushes and spin wake-ups as
// instants.

// chromeEvent is one Chrome trace-event object; Perfetto and
// chrome://tracing consume the JSON object format {"traceEvents": [...]}.
// Simulated cycles map 1:1 to the format's microsecond timestamps.
// Scope belongs to instants, ID and BP to flow events.
type chromeEvent struct {
	Name  string    `json:"name"`
	Phase string    `json:"ph"`
	Ts    sim.Time  `json:"ts"`
	Dur   *sim.Time `json:"dur,omitempty"`
	Pid   int       `json:"pid"`
	Tid   int       `json:"tid"`
	Cat   string    `json:"cat,omitempty"`
	Scope string    `json:"s,omitempty"`
	ID    string    `json:"id,omitempty"`
	BP    string    `json:"bp,omitempty"`
	Args  any       `json:"args,omitempty"`
}

// stallArgs names what a stall slice's processor waited for.
type stallArgs struct {
	Reason string `json:"reason"`
}

// WriteTimeline writes the timeline of a traced run. Output is
// deterministic: spans are in completion order, stalls in event order,
// instants in the log's order, and flow edges reference transaction
// IDs. ops, the run's operation log, may be nil. The tracer must have
// been built with StoreRecords; any other is refused rather than
// written as an empty timeline.
func WriteTimeline(w io.Writer, t *Tracer, ops *Log, protocol string) error {
	if t == nil || !t.store {
		return errors.New("trace: the timeline needs a tracer that stores records (StoreRecords)")
	}
	procs := t.Procs()
	spans := t.Spans()
	events := make([]chromeEvent, 0, 2*len(spans)+2*len(t.Stalls())+ops.Len()+procs+1)
	events = append(events, chromeEvent{
		Name: "process_name", Phase: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "coherencesim transactions"},
	})
	for p := 0; p < procs; p++ {
		events = append(events, chromeEvent{
			Name: "thread_name", Phase: "M", Pid: 0, Tid: p,
			Args: map[string]any{"name": fmt.Sprintf("proc %d", p)},
		})
	}

	// Transactions present in the retained buffer, for flow-edge pruning
	// (a stall released by a dropped span gets no arrow).
	retained := make(map[TxnID]*TxnSpan, len(spans))
	for i := range spans {
		retained[spans[i].ID] = &spans[i]
	}

	for i := range spans {
		s := &spans[i]
		dur := s.End - s.Issue
		events = append(events, chromeEvent{
			Name: s.Kind.String(), Phase: "X", Ts: s.Issue, Dur: &dur,
			Pid: 0, Tid: s.Proc, Cat: "txn",
			Args: map[string]any{
				"txn": uint32(s.ID), "block": s.Block,
				"hops": s.Hops, "flits": s.Flits,
			},
		})
		for _, tg := range s.Targets {
			d := tg.Acked - tg.Sent
			events = append(events, chromeEvent{
				Name: s.Fan.fanName(), Phase: "X", Ts: tg.Sent, Dur: &d,
				Pid: 0, Tid: tg.Target, Cat: "fanout",
				Args: map[string]any{"txn": uint32(s.ID)},
			})
		}
	}

	for _, st := range t.Stalls() {
		d := st.End - st.Start
		events = append(events, chromeEvent{
			Name: st.Cat.String(), Phase: "X", Ts: st.Start, Dur: &d,
			Pid: 0, Tid: st.Proc, Cat: "stall", Args: stallArgs{st.Reason},
		})
		if st.By == 0 {
			continue
		}
		rel, ok := retained[st.By]
		if !ok {
			continue
		}
		id := fmt.Sprintf("txn-%d", uint32(st.By))
		events = append(events,
			chromeEvent{Name: "release", Phase: "s", Ts: rel.End, Pid: 0, Tid: rel.Proc, Cat: "flow", ID: id},
			chromeEvent{Name: "release", Phase: "f", BP: "e", Ts: st.End, Pid: 0, Tid: st.Proc, Cat: "flow", ID: id},
		)
	}

	for _, e := range ops.Events() {
		switch e.Kind {
		case Atomic, Fence, Flush, SpinWake:
			events = append(events, chromeEvent{
				Name: e.Kind.String(), Phase: "i", Ts: e.Time,
				Pid: 0, Tid: e.Proc, Cat: "op", Scope: "t",
			})
		}
	}

	return json.NewEncoder(w).Encode(struct {
		Envelope        Envelope      `json:"envelope"`
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{Envelope{Schema: TraceSchemaVersion, Kind: "txn-timeline", Protocol: protocol}, events, "ms"})
}

// fanName labels a fan-out leg slice.
func (f FanKind) fanName() string {
	switch f {
	case FanInv:
		return "invalidate"
	case FanUpd:
		return "update"
	}
	return "fanout"
}
