package walk

import (
	"fmt"
	"go/parser"
	"go/token"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// toy is a protocol-free model for the walker: two counters a and b,
// each stepped up to limit by its own action, so the walk meets diamonds
// (a then b, b then a) that dedup must merge. Quiescent states are those
// with a == b; the only state a clean run may end in is (limit, limit).
// fault plants one verdict.
type toy struct {
	limit uint8
	fault Kind
}

type toyState struct{ a, b uint8 }

func (m toy) enabled(s toyState) []byte {
	var acts []byte
	if m.fault == Deadlock && s == (toyState{1, 0}) {
		return nil // stuck before the work is done
	}
	if s.a < m.limit {
		acts = append(acts, 'a')
	}
	if s.b < m.limit {
		acts = append(acts, 'b')
	}
	if m.fault == Livelock && s == (toyState{m.limit, m.limit}) {
		acts = append(acts, 'w') // wraps to the root: a cycle
	}
	return acts
}

func (m toy) apply(s toyState, a byte) (toyState, string) {
	if !strings.Contains(string(m.enabled(s)), string(a)) {
		return s, fmt.Sprintf("%c not enabled in %v", a, s)
	}
	switch a {
	case 'a':
		s.a++
	case 'b':
		if m.fault == Internal && s.a == m.limit {
			return s, "b after a is done"
		}
		s.b++
	case 'w':
		s = toyState{}
	}
	return s, ""
}

func (m toy) encode(s toyState, buf []byte) []byte { return append(buf, s.a, s.b) }

func (m toy) check(s toyState, terminal bool) (Kind, string, bool) {
	quiescent := s.a == s.b
	switch {
	case m.fault == Invariant && s.a+s.b == 3:
		return Invariant, "a+b is 3", false
	case m.fault == Quiescent && quiescent && s.a == 1:
		return Quiescent, "stable at 1", true
	case terminal && s != (toyState{m.limit, m.limit}):
		return Deadlock, fmt.Sprintf("stuck at %v", s), quiescent
	}
	return "", "", quiescent
}

func (m toy) model() Model[toyState, byte] {
	return Model[toyState, byte]{Enabled: m.enabled, Apply: m.apply, Encode: m.encode, Check: m.check}
}

func walkToy(m toy, maxStates int) (Stats, *Finding[byte], error) {
	return Search(m.model(), toyState{}, maxStates)
}

// TestWalkToyCounts pins what the walker counts on a model it knows
// nothing about: the 3x3 grid has 9 states, 12 edges, 3 quiescent
// states, one terminal state and a longest path of 4.
func TestWalkToyCounts(t *testing.T) {
	ws, f, err := walkToy(toy{limit: 2}, 0)
	if err != nil || f != nil {
		t.Fatalf("clean toy: finding %v, err %v", f, err)
	}
	want := Stats{States: 9, Transitions: 12, Quiescent: 3, Terminal: 1, MaxDepth: 4}
	if ws != want {
		t.Fatalf("stats %+v, want %+v", ws, want)
	}
}

// TestWalkToyVerdicts drives the walker through every verdict: each
// planted fault is found at the first state the depth-first order
// (a before b) reaches it, with the counts of the walk so far, and the
// schedule it returns replays to the same finding.
func TestWalkToyVerdicts(t *testing.T) {
	for _, tc := range []struct {
		fault Kind
		why   string
		path  string
		stats Stats
	}{
		{Invariant, "a+b is 3", "aab", Stats{States: 4, Transitions: 3, Quiescent: 1, MaxDepth: 3}},
		{Quiescent, "stable at 1", "ab", Stats{States: 6, Transitions: 5, Quiescent: 3, Terminal: 1, MaxDepth: 4}},
		{Deadlock, "stuck at {1 0}", "a", Stats{States: 2, Transitions: 1, Quiescent: 1, Terminal: 1, MaxDepth: 1}},
		{Livelock, "state revisits itself along the schedule (protocol can cycle forever)", "aabbw",
			Stats{States: 5, Transitions: 5, Quiescent: 2, MaxDepth: 4}},
		{Internal, "b after a is done", "aab", Stats{States: 3, Transitions: 3, Quiescent: 1, MaxDepth: 2}},
	} {
		m := toy{limit: 2, fault: tc.fault}
		ws, f, err := walkToy(m, 0)
		if err != nil || f == nil {
			t.Fatalf("%s: finding %v, err %v", tc.fault, f, err)
		}
		want := &Finding[byte]{Kind: tc.fault, Why: tc.why, Path: []byte(tc.path)}
		if !reflect.DeepEqual(f, want) || ws != tc.stats {
			t.Errorf("%s: got %+v %q after %+v, want %+v %q after %+v", tc.fault, *f, f.Path, ws, *want, want.Path, tc.stats)
		}
		if rf := Replay(m.model(), toyState{}, f.Path); !reflect.DeepEqual(rf, want) {
			t.Errorf("%s: replay found %+v, want %+v", tc.fault, rf, want)
		}
	}
}

// TestReplayToy: a schedule that stops short of a terminal state, or
// ends at the clean one, replays to nothing; an action its state does
// not enable is the internal verdict, reported at that action.
func TestReplayToy(t *testing.T) {
	m := toy{limit: 2}
	for _, sched := range []string{"", "ab", "abab"} {
		if f := Replay(m.model(), toyState{}, []byte(sched)); f != nil {
			t.Errorf("clean schedule %q: %+v", sched, *f)
		}
	}
	f := Replay(m.model(), toyState{}, []byte("aaab"))
	if f == nil || f.Kind != Internal || string(f.Path) != "aaa" {
		t.Fatalf("disabled action: %+v", f)
	}
}

// TestWalkMaxStates: a walk past its bound is an error, never a silent
// truncation; a bound the space fits in is no bound.
func TestWalkMaxStates(t *testing.T) {
	if _, _, err := walkToy(toy{limit: 2}, 8); err == nil || !strings.Contains(err.Error(), "MaxStates=8") {
		t.Fatalf("MaxStates=8 on 9 states: err %v", err)
	}
	if ws, _, err := walkToy(toy{limit: 2}, 9); err != nil || ws.States != 9 {
		t.Fatalf("MaxStates=9 on 9 states: %+v, err %v", ws, err)
	}
}

// TestWalkerImportsOnlyStdlib keeps walk.go protocol-free: no import
// from this module or outside the standard library.
func TestWalkerImportsOnlyStdlib(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "walk.go", nil, parser.ImportsOnly)
	if err != nil {
		t.Fatal(err)
	}
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if first, _, _ := strings.Cut(path, "/"); strings.Contains(first, ".") || strings.HasPrefix(path, "coherencesim") {
			t.Errorf("walk.go imports %q", path)
		}
	}
}
