package mc

import "fmt"

// The walker is the protocol-free half of the checker: the iterative
// depth-first search, exact deduplication on canonical bytes, on-path
// livelock detection, the MaxStates abort, violation recording and
// schedule replay. Everything it knows about a system sits behind the
// four methods of model; the directory protocols implement them
// (liveModel), and so does a toy counter model in the tests. This file
// imports only the standard library.

// ViolationKind classifies what an exploration found.
type ViolationKind string

const (
	VInvariant ViolationKind = "invariant" // every-state invariant broken
	VQuiescent ViolationKind = "quiescent" // stable-state invariant broken
	VDeadlock  ViolationKind = "deadlock"  // terminal state with unfinished work
	VLivelock  ViolationKind = "livelock"  // cycle reachable on the search path
	VInternal  ViolationKind = "internal"  // failed guard or impossible handler case
)

// model is one system under check, with states S and actions A.
type model[S, A any] interface {
	// enabled lists the actions enabled in s, in the order the walk
	// tries them.
	enabled(s S) []A
	// apply returns the state a leads to and leaves s untouched. A
	// non-empty reason (a failed guard or a handler error) is the
	// VInternal verdict.
	apply(s S, a A) (next S, reason string)
	// encode appends s's canonical encoding to buf. Two states encode
	// equally iff no action can tell them apart, so dedup is exact.
	encode(s S, buf []byte) []byte
	// check judges a newly reached state: the every-state invariants,
	// the stable-state ones when s is quiescent and, when terminal (no
	// action is enabled), the deadlock verdict. quiescent is reported
	// whatever the verdict, for the count.
	check(s S, terminal bool) (kind ViolationKind, why string, quiescent bool)
}

// walkStats counts one walk; Result carries the same fields.
type walkStats struct {
	states, transitions, quiescent, terminal, maxDepth int
}

// finding is the violation a walk stopped at and the schedule of
// actions from the root to it.
type finding[A any] struct {
	kind ViolationKind
	why  string
	path []A
}

// walk explores every state reachable from root, checking each distinct
// one once, and stops at the first violation. Livelock detection uses
// the DFS path: reaching a state that is on the current path is a cycle
// a fair scheduler could traverse forever. Going past maxStates (> 0)
// distinct states is an error, never a silent truncation.
func walk[S, A any](m model[S, A], root S, maxStates int) (walkStats, *finding[A], error) {
	type frame struct {
		s    S
		acts []A
		next int    // index of the next action to try
		act  A      // the action that reached s
		key  string // s's encoding
	}
	ws := walkStats{states: 1}
	buf := m.encode(root, nil)
	// visited holds every state reached: true while it is on the DFS path.
	visited := map[string]bool{string(buf): true}
	stack := []frame{{s: root, acts: m.enabled(root), key: string(buf)}}
	verdict := func(s S, acts []A) (ViolationKind, string) {
		kind, why, quiescent := m.check(s, len(acts) == 0)
		if quiescent {
			ws.quiescent++
		}
		// A terminal state counts once the every-state and quiescent
		// checks pass, whether or not it deadlocks.
		if len(acts) == 0 && (kind == "" || kind == VDeadlock) {
			ws.terminal++
		}
		return kind, why
	}
	found := func(kind ViolationKind, why string, last []A) *finding[A] {
		f := &finding[A]{kind: kind, why: why}
		for _, fr := range stack[1:] {
			f.path = append(f.path, fr.act)
		}
		f.path = append(f.path, last...)
		return f
	}
	if kind, why := verdict(root, stack[0].acts); kind != "" {
		return ws, found(kind, why, nil), nil
	}
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		if top.next == len(top.acts) {
			visited[top.key] = false
			stack = stack[:len(stack)-1]
			continue
		}
		a := top.acts[top.next]
		top.next++
		ws.transitions++
		s, reason := m.apply(top.s, a)
		if reason != "" {
			return ws, found(VInternal, reason, []A{a}), nil
		}
		buf = m.encode(s, buf[:0])
		if onPath, seen := visited[string(buf)]; seen {
			if onPath {
				return ws, found(VLivelock, "state revisits itself along the schedule (protocol can cycle forever)", []A{a}), nil
			}
			continue
		}
		ws.states++
		if maxStates > 0 && ws.states > maxStates {
			return ws, nil, fmt.Errorf("mc: exploration exceeded MaxStates=%d (state space too large for the configured bounds)", maxStates)
		}
		ws.maxDepth = max(ws.maxDepth, len(stack))
		acts := m.enabled(s)
		if kind, why := verdict(s, acts); kind != "" {
			return ws, found(kind, why, []A{a}), nil
		}
		key := string(buf)
		visited[key] = true
		stack = append(stack, frame{s: s, acts: acts, act: a, key: key})
	}
	return ws, nil, nil
}

// replay walks one schedule from root: the walk of replayModel, whose
// only enabled action at depth d is sched[d], so a schedule meets exactly
// the guards, verdicts and livelock check of the search that recorded it.
// It returns the violation the schedule reaches, or nil.
func replay[S, A any](m model[S, A], root S, sched []A) *finding[A] {
	_, f, _ := walk[replayState[S], A](replayModel[S, A]{m, sched}, replayState[S]{root, 0}, 0)
	return f
}

// replayModel restricts m to one schedule. Its states pair m's with the
// number of scheduled actions that reached them; the schedule's end is
// terminal when m enables nothing there.
type replayModel[S, A any] struct {
	m     model[S, A]
	sched []A
}

type replayState[S any] struct {
	s     S
	depth int
}

func (r replayModel[S, A]) enabled(s replayState[S]) []A {
	return r.sched[s.depth:min(s.depth+1, len(r.sched))]
}

func (r replayModel[S, A]) apply(s replayState[S], a A) (replayState[S], string) {
	next, reason := r.m.apply(s.s, a)
	return replayState[S]{next, s.depth + 1}, reason
}

func (r replayModel[S, A]) encode(s replayState[S], buf []byte) []byte { return r.m.encode(s.s, buf) }

func (r replayModel[S, A]) check(s replayState[S], end bool) (ViolationKind, string, bool) {
	return r.m.check(s.s, end && len(r.m.enabled(s.s)) == 0)
}
