package mc

import (
	"fmt"

	"coherencesim/internal/trace"
	"coherencesim/internal/walk"
)

// Violation is one counterexample: the schedule of actions from the
// initial state to the violating state.
type Violation struct {
	Kind   walk.Kind
	Detail string
	Trace  Trace
}

func (v *Violation) String() string {
	return fmt.Sprintf("%s: %s (schedule of %d actions)", v.Kind, v.Detail, len(v.Trace.Actions))
}

// Result summarizes one bounded-exhaustive exploration.
type Result struct {
	Config      Config
	States      int // distinct reachable states
	Transitions int // actions applied (edges, including duplicates)
	Quiescent   int // distinct quiescent states
	Terminal    int // distinct terminal states (no enabled action)
	MaxDepth    int // longest simple path explored
	// Violations holds at most one: the walk stops at the first.
	Violations []*Violation
}

// Explore runs bounded exhaustive reachability from the initial state
// under cfg: the walk package's search over the live protocols (live.go),
// which checks the invariants on every distinct state and stops at the
// first violation, returned with a replayable trace. Because actions
// always consume either issue budget or a message — and every handler
// sends at most a bounded number of messages per consumed one — a
// livelock indicates a protocol that can regenerate its own work, which
// the faithful protocols never do.
func Explore(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := newLiveModel(cfg)
	ws, f, err := walk.Search(m.model(), m.root, cfg.MaxStates)
	if err != nil {
		return nil, err
	}
	res := &Result{Config: cfg, States: ws.States, Transitions: ws.Transitions,
		Quiescent: ws.Quiescent, Terminal: ws.Terminal, MaxDepth: ws.MaxDepth}
	if f != nil {
		res.Violations = []*Violation{{Kind: f.Kind, Detail: f.Why, Trace: traceOf(cfg, f.Path)}}
	}
	return res, nil
}

// traceOf serializes a schedule of actions from the initial state.
func traceOf(cfg Config, path []action) Trace {
	t := Trace{
		Envelope: trace.Envelope{
			Schema:   trace.TraceSchemaVersion,
			Kind:     "counterexample",
			Protocol: cfg.Protocol.String(),
		},
		Procs:            cfg.Procs,
		Blocks:           cfg.Blocks,
		Words:            cfg.Words,
		OpsPerProc:       cfg.OpsPerProc,
		CUThreshold:      cfg.CUThreshold,
		DisableRetention: cfg.DisableRetention,
		Faults:           cfg.Faults,
	}
	for _, k := range cfg.OpSet {
		t.OpSet = append(t.OpSet, k.String())
	}
	for _, a := range path {
		t.Actions = append(t.Actions, a.String())
	}
	return t
}
