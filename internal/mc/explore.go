package mc

import (
	"fmt"

	"coherencesim/internal/trace"
)

// ViolationKind classifies what an exploration found.
type ViolationKind string

const (
	VInvariant ViolationKind = "invariant" // every-state invariant broken
	VQuiescent ViolationKind = "quiescent" // stable-state invariant broken
	VDeadlock  ViolationKind = "deadlock"  // terminal state with unfinished work
	VLivelock  ViolationKind = "livelock"  // cycle reachable on the search path
	VInternal  ViolationKind = "internal"  // model handler hit an impossible case
)

// Violation is one counterexample: the schedule of actions from the
// initial state to the violating state.
type Violation struct {
	Kind   ViolationKind
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
	Violations  []*Violation
}

// frame is one iterative-DFS stack entry.
type frame struct {
	st   *state
	acts []action
	next int    // index of the next action to try
	act  action // the action that produced this frame (from its parent)
	key  string // canonical encoding, for the on-path cycle check
}

// Explore runs bounded exhaustive reachability from the initial state
// under cfg, checking invariants on every distinct state. It returns
// the exploration summary; violations (each with a replayable trace)
// are collected rather than aborting, but exploration stops after
// maxViolations distinct ones to keep counterexamples small and fast.
//
// The search is a depth-first walk deduplicated on canonical state
// encodings. Livelock detection uses the DFS path: revisiting a state
// that is on the current path is a cycle every fair scheduler could
// traverse forever. Because actions in this model always consume either
// issue budget or a message — and every handler sends at most a bounded
// number of messages per consumed one — true cycles indicate a protocol
// that can regenerate its own work, which the faithful model never does.
func Explore(cfg Config) (*Result, error) {
	if cfg.CUThreshold == 0 {
		cfg.CUThreshold = 4
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	const maxViolations = 1

	res := &Result{Config: cfg}
	visited := make(map[string]struct{})
	onPath := make(map[string]int)

	root := newState(cfg)
	rootKey := string(encode(cfg, root, nil))
	visited[rootKey] = struct{}{}
	stack := []*frame{{st: root, acts: enabledActions(cfg, root), key: rootKey}}
	onPath[rootKey] = 0
	res.States = 1

	record := func(kind ViolationKind, detail string) {
		res.Violations = append(res.Violations, &Violation{
			Kind:   kind,
			Detail: detail,
			Trace:  traceOf(cfg, stack),
		})
	}

	// Check the root too (trivially fine for the faithful model).
	if why := checkEvery(cfg, root); why != "" {
		record(VInvariant, why)
		return res, nil
	}
	res.Quiescent++ // the initial state is quiescent by construction

	for len(stack) > 0 {
		top := stack[len(stack)-1]
		if top.next >= len(top.acts) {
			if len(top.acts) == 0 {
				res.Terminal++
				if why := checkDeadlock(cfg, top.st); why != "" {
					record(VDeadlock, why)
					if len(res.Violations) >= maxViolations {
						return res, nil
					}
				}
			}
			delete(onPath, top.key)
			stack = stack[:len(stack)-1]
			continue
		}
		a := top.acts[top.next]
		top.next++

		child := top.st.clone()
		x := &stepCtx{cfg: cfg, st: child}
		x.apply(a)
		res.Transitions++
		key := string(encode(cfg, child, nil))

		// Push a provisional frame so traceOf sees the full schedule.
		stack = append(stack, &frame{st: child, act: a, key: key})
		// A handler error is reported whatever state it left; only a
		// clean step is deduplicated and counted.
		if x.err == "" {
			if _, seen := visited[key]; seen {
				if _, cycle := onPath[key]; cycle {
					record(VLivelock, "state revisits itself along the schedule (protocol can cycle forever)")
					if len(res.Violations) >= maxViolations {
						return res, nil
					}
				}
				stack = stack[:len(stack)-1]
				continue
			}
			visited[key] = struct{}{}
			res.States++
			if cfg.MaxStates > 0 && res.States > cfg.MaxStates {
				return nil, fmt.Errorf("mc: exploration exceeded MaxStates=%d (state space too large for the configured bounds)", cfg.MaxStates)
			}
			if d := len(stack) - 1; d > res.MaxDepth {
				res.MaxDepth = d
			}
		}

		kind, why, quiescent := x.verdict()
		if quiescent {
			res.Quiescent++
		}
		if kind != "" {
			record(kind, why)
			if len(res.Violations) >= maxViolations {
				return res, nil
			}
			stack = stack[:len(stack)-1]
			continue
		}
		top = stack[len(stack)-1]
		top.acts = enabledActions(cfg, child)
		onPath[top.key] = len(stack) - 1
	}
	return res, nil
}

// verdict is the check Explore and Replay both run after an action, in
// one order: the handler's internal error, then the every-state
// invariants, then, when the state is quiescent, the stable-state ones.
// quiescent reports that last condition for Explore's count.
func (x *stepCtx) verdict() (kind ViolationKind, why string, quiescent bool) {
	if x.err != "" {
		return VInternal, x.err, false
	}
	if why := checkEvery(x.cfg, x.st); why != "" {
		return VInvariant, why, false
	}
	if !x.st.quiescent(x.cfg) {
		return "", "", false
	}
	if why := checkQuiescent(x.cfg, x.st); why != "" {
		return VQuiescent, why, true
	}
	return "", "", true
}

// traceOf serializes the schedule along the current DFS stack.
func traceOf(cfg Config, stack []*frame) Trace {
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
	for _, f := range stack[1:] { // stack[0] is the initial state
		t.Actions = append(t.Actions, encodeAction(f.act))
	}
	return t
}
