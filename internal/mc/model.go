// Package mc is an exhaustive bounded model checker for the three
// directory protocols (WI, PU, CU) in internal/proto. It checks the
// protocols' own handlers: there is no second copy of them to keep
// honest.
//
// A proto.Explorer runs the handlers on an untimed choice network, one
// FIFO per (src, dst) pair, which delivers nothing until the checker
// chooses. The two action families are
//
//   - Issue(p, op): an idle processor with remaining budget starts a
//     read, write, atomic fetch-add, or flush, exactly as the machine
//     layer drives proto.System; and
//   - Deliver(src, dst): the head message of a non-empty channel is
//     delivered and its handler runs, followed by the memory accesses
//     it starts (memory latency is the only timing left).
//
// The network preserves exactly the ordering the implementation relies
// on (per-(src,dst) FIFO) and relaxes everything else, so the explored
// interleavings are a superset of what any timing of the real mesh can
// produce; every acknowledgement of a multicast is its own delivery.
// Bounded exhaustive reachability over this space — with a canonical
// encoding of the live system for deduplication — judges every state by
// proto's coherence rules, stated once in proto.System.CheckBlock in
// two strata (the check behind proto.CheckCoherence): the every-state
// stratum (single writer, ownership, dirty-implies-exclusive, the
// counter discipline, directory shape) on every reachable state, and
// both strata whenever no message is in flight. The checker adds only
// what needs its own history or the choice network: data-value
// containment, the count of cancelled write-backs still in flight, and
// the deadlock/livelock verdicts.
//
// A state is the schedule that reaches it. The walker (package walk) is
// protocol-free: it sees the protocols only through the four methods of
// its Model — Enabled, Apply, Encode and Check — which live.go
// implements over one explorer, resetting it and replaying a schedule
// whenever the search backtracks. Violations serialize as compact JSON
// traces (trace.go) that replay deterministically as go test
// regression cases.
package mc

import (
	"fmt"

	"coherencesim/internal/proto"
)

// Hard bounds on the configuration. These size the driver's fixed arrays
// and the encoding's bytes; the checker is meant for small exhaustive
// configurations, not big simulations.
const (
	MaxProcs  = 4
	MaxBlocks = 2
	MaxWords  = 2
	MaxOps    = 4 // per-processor issue budget
)

// OpKind enumerates the operations a processor may issue.
type OpKind uint8

const (
	OpRead OpKind = iota
	OpWrite
	OpAtomic // fetch-add 1, the shape every construct in the paper uses
	OpFlush
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpAtomic:
		return "atomic"
	case OpFlush:
		return "flush"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// ParseOpKind inverts OpKind.String: it is how traces, their op sets and
// the -ops flag name an operation.
func ParseOpKind(s string) (OpKind, error) {
	for k := OpRead; k <= OpFlush; k++ {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("mc: unknown op kind %q", s)
}

// Faults selects deliberate protocol bugs for checker self-tests: each
// produces a counterexample the invariant suite must catch. The zero
// value is the faithful protocol.
type Faults = proto.Faults

// Config bounds one exhaustive exploration.
type Config struct {
	Protocol    proto.Protocol
	Procs       int
	Blocks      int
	Words       int
	OpsPerProc  int // issue budget per processor ("depth" of the search)
	CUThreshold uint8
	// DisableRetention is proto.Config.DisableRetention (PU).
	DisableRetention bool
	// OpSet restricts the issue alphabet; empty means all four kinds.
	OpSet []OpKind
	// Faults injects deliberate bugs (checker self-tests only).
	Faults Faults
	// MaxStates aborts the exploration (with an error, never silently)
	// beyond this many distinct states; 0 means unlimited.
	MaxStates int
}

// Validate checks the bounds, and that OpSet names known kinds, each
// at most once.
func (c Config) Validate() error {
	switch {
	case c.Procs < 2 || c.Procs > MaxProcs:
		return fmt.Errorf("mc: procs %d out of range [2,%d]", c.Procs, MaxProcs)
	case c.Blocks < 1 || c.Blocks > MaxBlocks:
		return fmt.Errorf("mc: blocks %d out of range [1,%d]", c.Blocks, MaxBlocks)
	case c.Words < 1 || c.Words > MaxWords:
		return fmt.Errorf("mc: words %d out of range [1,%d]", c.Words, MaxWords)
	case c.OpsPerProc < 1 || c.OpsPerProc > MaxOps:
		return fmt.Errorf("mc: ops per proc %d out of range [1,%d]", c.OpsPerProc, MaxOps)
	case c.CUThreshold < 1:
		return fmt.Errorf("mc: CU threshold must be >= 1")
	case c.MaxStates < 0:
		return fmt.Errorf("mc: max states %d is negative", c.MaxStates)
	}
	var kinds uint8
	for _, k := range c.OpSet {
		switch {
		case k > OpFlush:
			return fmt.Errorf("mc: unknown op kind %v", k)
		case kinds&(1<<k) != 0:
			return fmt.Errorf("mc: op kind %v repeated", k)
		}
		kinds |= 1 << k
	}
	switch c.Protocol {
	case proto.WI, proto.PU, proto.CU:
	default:
		return fmt.Errorf("mc: unknown protocol %v", c.Protocol)
	}
	return nil
}

// withDefaults reads a zero CUThreshold as the paper's threshold of 4.
// Explore and Trace.ConfigOf apply it before Validate.
func (c Config) withDefaults() Config {
	if c.CUThreshold == 0 {
		c.CUThreshold = 4
	}
	return c
}

// DefaultConfig returns the smoke-slice bounds for a protocol.
func DefaultConfig(p proto.Protocol) Config {
	return Config{Protocol: p, Procs: 2, Blocks: 1, Words: 1, OpsPerProc: 2}.withDefaults()
}

// writeValue returns the value processor p's i-th issued operation
// writes: unique per (processor, slot) so the containment invariant can
// attribute every byte it sees, and identical across schedules touching
// the same slot so canonical deduplication stays effective.
func writeValue(cfg Config, p, issued uint8) uint8 {
	return uint8(int(p)*cfg.OpsPerProc+int(issued)) + 1
}
