// Package walk is the protocol-free half of the model checkers: the
// iterative depth-first search, exact deduplication on canonical bytes,
// on-path livelock detection, the state bound, violation recording and
// schedule replay. Everything it knows about a system sits behind the
// four functions of a Model; the directory protocols provide them
// (internal/mc), and so do the fleet's lease queue and a toy counter
// model in the tests. This package imports only the standard library.
package walk

import "fmt"

// Kind classifies what a walk found.
type Kind string

const (
	Invariant Kind = "invariant" // every-state invariant broken
	Quiescent Kind = "quiescent" // stable-state invariant broken
	Deadlock  Kind = "deadlock"  // terminal state with unfinished work
	Livelock  Kind = "livelock"  // cycle reachable on the search path
	Internal  Kind = "internal"  // failed guard or impossible handler case
)

// Model is one system under check, with states S and actions A.
type Model[S, A any] struct {
	// Enabled lists the actions enabled in s, in the order the walk
	// tries them.
	Enabled func(s S) []A
	// Apply returns the state a leads to and leaves s untouched. A
	// non-empty reason (a failed guard or a handler error) is the
	// Internal verdict.
	Apply func(s S, a A) (next S, reason string)
	// Encode appends s's canonical encoding to buf. Two states encode
	// equally iff no action can tell them apart, so dedup is exact.
	Encode func(s S, buf []byte) []byte
	// Check judges a newly reached state: the every-state invariants,
	// the stable-state ones when s is quiescent and, when terminal (no
	// action is enabled), the deadlock verdict. quiescent is reported
	// whatever the verdict, for the count.
	Check func(s S, terminal bool) (kind Kind, why string, quiescent bool)
}

// Stats counts one walk.
type Stats struct {
	States, Transitions, Quiescent, Terminal, MaxDepth int
}

// Finding is the violation a walk stopped at and the schedule of
// actions from the root to it.
type Finding[A any] struct {
	Kind Kind
	Why  string
	Path []A
}

// Search explores every state reachable from root, checking each
// distinct one once, and stops at the first violation. Livelock
// detection uses the DFS path: reaching a state that is on the current
// path is a cycle a fair scheduler could traverse forever. Going past
// maxStates (> 0) distinct states is an error, never a silent
// truncation.
func Search[S, A any](m Model[S, A], root S, maxStates int) (Stats, *Finding[A], error) {
	type frame struct {
		s    S
		acts []A
		next int    // index of the next action to try
		act  A      // the action that reached s
		key  string // s's encoding
	}
	ws := Stats{States: 1}
	buf := m.Encode(root, nil)
	// visited holds every state reached: true while it is on the DFS path.
	visited := map[string]bool{string(buf): true}
	stack := []frame{{s: root, acts: m.Enabled(root), key: string(buf)}}
	verdict := func(s S, acts []A) (Kind, string) {
		kind, why, quiescent := m.Check(s, len(acts) == 0)
		if quiescent {
			ws.Quiescent++
		}
		// A terminal state counts once the every-state and quiescent
		// checks pass, whether or not it deadlocks.
		if len(acts) == 0 && (kind == "" || kind == Deadlock) {
			ws.Terminal++
		}
		return kind, why
	}
	found := func(kind Kind, why string, last []A) *Finding[A] {
		f := &Finding[A]{Kind: kind, Why: why}
		for _, fr := range stack[1:] {
			f.Path = append(f.Path, fr.act)
		}
		f.Path = append(f.Path, last...)
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
		ws.Transitions++
		s, reason := m.Apply(top.s, a)
		if reason != "" {
			return ws, found(Internal, reason, []A{a}), nil
		}
		buf = m.Encode(s, buf[:0])
		if onPath, seen := visited[string(buf)]; seen {
			if onPath {
				return ws, found(Livelock, "state revisits itself along the schedule (protocol can cycle forever)", []A{a}), nil
			}
			continue
		}
		ws.States++
		if maxStates > 0 && ws.States > maxStates {
			return ws, nil, fmt.Errorf("walk: exploration exceeded MaxStates=%d (state space too large for the configured bounds)", maxStates)
		}
		ws.MaxDepth = max(ws.MaxDepth, len(stack))
		acts := m.Enabled(s)
		if kind, why := verdict(s, acts); kind != "" {
			return ws, found(kind, why, []A{a}), nil
		}
		key := string(buf)
		visited[key] = true
		stack = append(stack, frame{s: s, acts: acts, act: a, key: key})
	}
	return ws, nil, nil
}

// Replay walks one schedule from root: the search of m restricted to
// it — at depth d the only enabled action is sched[d] — so a schedule
// meets exactly the guards, verdicts and livelock check of the search
// that recorded it. It returns the violation the schedule reaches, or
// nil.
func Replay[S, A any](m Model[S, A], root S, sched []A) *Finding[A] {
	type state struct {
		s     S
		depth int
	}
	one := Model[state, A]{
		Enabled: func(s state) []A { return sched[s.depth:min(s.depth+1, len(sched))] },
		Apply: func(s state, a A) (state, string) {
			next, reason := m.Apply(s.s, a)
			return state{next, s.depth + 1}, reason
		},
		Encode: func(s state, buf []byte) []byte { return m.Encode(s.s, buf) },
		// The schedule's end is terminal when m enables nothing there.
		Check: func(s state, end bool) (Kind, string, bool) {
			return m.Check(s.s, end && len(m.Enabled(s.s)) == 0)
		},
	}
	_, f, _ := Search(one, state{root, 0}, 0)
	return f
}
