package trace

import (
	"errors"
	"fmt"
	"io"

	"coherencesim/internal/metrics"
)

// This file exports the tracer's retained transaction spans and
// attributed stalls as a Chrome trace-event / Perfetto document with
// flow arrows: each attributed stall carries a flow edge from the
// transaction that released it, so the UI draws the causal link from a
// coherence transaction's completion to the processor it woke.

// WriteTxnChromeTrace writes the flow-linked transaction timeline for a
// traced run. Output is deterministic: spans are in completion order,
// stalls in event order, and flow edges reference transaction IDs. The
// tracer must have been built with StoreRecords; any other is refused
// rather than written as an empty timeline.
func WriteTxnChromeTrace(w io.Writer, t *Tracer, protocol string) error {
	if t == nil || !t.store {
		return errors.New("trace: transaction timeline needs a tracer that stores records (StoreRecords)")
	}
	procs := t.Procs()
	events := make([]metrics.ChromeEvent, 0, 2*len(t.Spans())+2*len(t.Stalls())+procs+1)
	events = append(events, metrics.ChromeEvent{
		Name: "process_name", Phase: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "coherencesim transactions"},
	})
	for p := 0; p < procs; p++ {
		events = append(events, metrics.ChromeEvent{
			Name: "thread_name", Phase: "M", Pid: 0, Tid: p,
			Args: map[string]any{"name": fmt.Sprintf("proc %d", p)},
		})
	}

	// Transactions present in the retained buffer, for flow-edge pruning
	// (a stall released by a dropped span gets no arrow).
	retained := make(map[TxnID]*TxnSpan, len(t.Spans()))
	spans := t.Spans()
	for i := range spans {
		retained[spans[i].ID] = &spans[i]
	}

	for i := range spans {
		s := &spans[i]
		dur := s.End - s.Issue
		events = append(events, metrics.ChromeEvent{
			Name: s.Kind.String(), Phase: "X", Ts: s.Issue, Dur: &dur,
			Pid: 0, Tid: s.Proc, Cat: "txn",
			Args: map[string]any{
				"txn": uint32(s.ID), "block": s.Block,
				"hops": s.Hops, "flits": s.Flits,
			},
		})
		for _, tg := range s.Targets {
			d := tg.Acked - tg.Sent
			events = append(events, metrics.ChromeEvent{
				Name: s.Fan.fanName(), Phase: "X", Ts: tg.Sent, Dur: &d,
				Pid: 0, Tid: tg.Target, Cat: "fanout",
				Args: map[string]any{"txn": uint32(s.ID)},
			})
		}
	}

	for _, st := range t.Stalls() {
		d := st.End - st.Start
		events = append(events, metrics.ChromeEvent{
			Name: st.Cat.String(), Phase: "X", Ts: st.Start, Dur: &d,
			Pid: 0, Tid: st.Proc, Cat: "stall",
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
			metrics.ChromeEvent{Name: "release", Phase: "s", Ts: rel.End, Pid: 0, Tid: rel.Proc, Cat: "flow", ID: id},
			metrics.ChromeEvent{Name: "release", Phase: "f", BP: "e", Ts: st.End, Pid: 0, Tid: st.Proc, Cat: "flow", ID: id},
		)
	}

	return metrics.EncodeChromeTrace(w, Envelope{Schema: TraceSchemaVersion, Kind: "txn-timeline", Protocol: protocol}, events)
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
