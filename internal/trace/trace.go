// Package trace provides a lightweight operation tracer for simulated
// processors. A Log records one event per processor-level operation
// (loads, stores, atomics, flushes, fences, spin wake-ups) into a
// bounded ring buffer, cheap enough to leave enabled while reproducing a
// protocol bug and dump once the simulation stops.
package trace

import (
	"fmt"
	"io"
	"strings"

	"coherencesim/internal/sim"
)

// Kind is the operation category of an event.
type Kind uint8

// Event kinds.
const (
	Read Kind = iota
	ReadMiss
	Write
	Atomic
	Flush
	Fence
	SpinPark
	SpinWake
	numKinds
)

func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case ReadMiss:
		return "read-miss"
	case Write:
		return "write"
	case Atomic:
		return "atomic"
	case Flush:
		return "flush"
	case Fence:
		return "fence"
	case SpinPark:
		return "spin-park"
	case SpinWake:
		return "spin-wake"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Event is one recorded operation.
type Event struct {
	Time sim.Time
	Proc int
	Kind Kind
	Addr uint32
	Val  uint32
}

func (e Event) String() string {
	return fmt.Sprintf("t=%-10d p%-2d %-9s a=%-6d v=%d", e.Time, e.Proc, e.Kind, e.Addr, e.Val)
}

// Log is a bounded ring buffer of events. The zero value is unusable;
// create with NewLog. A nil *Log is a valid no-op tracer.
type Log struct {
	events []Event
	next   int
	full   bool
	total  uint64
}

// NewLog creates a ring buffer holding the last capacity events.
func NewLog(capacity int) *Log {
	if capacity <= 0 {
		panic("trace: capacity must be positive")
	}
	return &Log{events: make([]Event, capacity)}
}

// Record appends an event. Safe to call on a nil Log.
func (l *Log) Record(t sim.Time, proc int, kind Kind, addr, val uint32) {
	if l == nil {
		return
	}
	l.events[l.next] = Event{Time: t, Proc: proc, Kind: kind, Addr: addr, Val: val}
	l.next++
	l.total++
	if l.next == len(l.events) {
		l.next = 0
		l.full = true
	}
}

// Len reports how many events are currently buffered.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	if l.full {
		return len(l.events)
	}
	return l.next
}

// Total reports how many events were recorded over the log's lifetime
// (including ones that have since been overwritten).
func (l *Log) Total() uint64 {
	if l == nil {
		return 0
	}
	return l.total
}

// Events returns the buffered events in chronological order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	out := make([]Event, 0, l.Len())
	if l.full {
		out = append(out, l.events[l.next:]...)
	}
	out = append(out, l.events[:l.next]...)
	return out
}

// Dump writes the buffered events to w, one per line, optionally
// restricted to a single processor (proc = -1 for all).
func (l *Log) Dump(w io.Writer, proc int) error {
	for _, e := range l.Events() {
		if proc >= 0 && e.Proc != proc {
			continue
		}
		if _, err := fmt.Fprintln(w, e); err != nil {
			return err
		}
	}
	return nil
}

// Summary returns per-kind counts of the buffered window.
func (l *Log) Summary() string {
	var counts [numKinds]int
	for _, e := range l.Events() {
		counts[e.Kind]++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d buffered / %d total", l.Len(), l.Total())
	for k := Kind(0); k < numKinds; k++ {
		if counts[k] > 0 {
			fmt.Fprintf(&b, "  %s=%d", k, counts[k])
		}
	}
	return b.String()
}
