package mc

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"coherencesim/internal/proto"
	"coherencesim/internal/trace"
)

// Trace is a compact, replayable counterexample: the configuration plus
// the exact action schedule from the initial state to the violation.
// It serializes as JSON so a failing coherencemc run can be committed
// verbatim as a go test regression fixture (see TestReplay* in
// trace_test.go for the idiom). The header is the shared trace.Envelope
// (schema, kind "counterexample", protocol) every simulator-emitted
// trace document carries.
type Trace struct {
	trace.Envelope
	Procs            int      `json:"procs"`
	Blocks           int      `json:"blocks"`
	Words            int      `json:"words"`
	OpsPerProc       int      `json:"ops_per_proc"`
	CUThreshold      uint8    `json:"cu_threshold"`
	DisableRetention bool     `json:"disable_retention,omitempty"`
	OpSet            []string `json:"op_set,omitempty"`
	Faults           Faults   `json:"faults,omitempty"`
	Actions          []string `json:"actions"`
}

// encodeAction renders one action in the trace's compact text form:
// "p2 write b1.w0" for issues, "3>1" for deliveries.
func encodeAction(a action) string {
	if a.issue {
		return fmt.Sprintf("p%d %s b%d.w%d", a.p, a.kind, a.block, a.word)
	}
	return fmt.Sprintf("%d>%d", a.src, a.dst)
}

// parseAction inverts encodeAction.
func parseAction(s string) (action, error) {
	var a action
	if strings.HasPrefix(s, "p") {
		var kind string
		if _, err := fmt.Sscanf(s, "p%d %s b%d.w%d", &a.p, &kind, &a.block, &a.word); err != nil {
			return a, fmt.Errorf("mc: bad issue action %q: %v", s, err)
		}
		a.issue = true
		k, err := ParseOpKind(kind)
		if err != nil {
			return a, fmt.Errorf("mc: bad issue action %q: %v", s, err)
		}
		a.kind = k
		return a, nil
	}
	if _, err := fmt.Sscanf(s, "%d>%d", &a.src, &a.dst); err != nil {
		return a, fmt.Errorf("mc: bad deliver action %q: %v", s, err)
	}
	return a, nil
}

// parseProtocol maps a trace's protocol name back to the proto constant.
func parseProtocol(s string) (proto.Protocol, error) {
	switch s {
	case "WI":
		return proto.WI, nil
	case "PU":
		return proto.PU, nil
	case "CU":
		return proto.CU, nil
	}
	return 0, fmt.Errorf("mc: unknown protocol %q", s)
}

// Config reconstructs the exploration configuration a trace was
// recorded under.
func (t *Trace) ConfigOf() (Config, error) {
	p, err := parseProtocol(t.Protocol)
	if err != nil {
		return Config{}, err
	}
	cfg := Config{
		Protocol:         p,
		Procs:            t.Procs,
		Blocks:           t.Blocks,
		Words:            t.Words,
		OpsPerProc:       t.OpsPerProc,
		CUThreshold:      t.CUThreshold,
		DisableRetention: t.DisableRetention,
		Faults:           t.Faults,
	}
	for _, name := range t.OpSet {
		k, err := ParseOpKind(name)
		if err != nil {
			return Config{}, err
		}
		cfg.OpSet = append(cfg.OpSet, k)
	}
	if cfg.CUThreshold == 0 {
		cfg.CUThreshold = 4
	}
	return cfg, cfg.Validate()
}

// LoadTrace reads a JSON trace from disk.
func LoadTrace(path string) (*Trace, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseTrace(raw)
}

// ParseTrace decodes a JSON trace. A document without the envelope's
// schema field reads as schema 0 and is refused like any other
// unsupported version.
func ParseTrace(raw []byte) (*Trace, error) {
	var t Trace
	if err := json.Unmarshal(raw, &t); err != nil {
		return nil, fmt.Errorf("mc: bad trace: %v", err)
	}
	if t.Schema != trace.TraceSchemaVersion {
		return nil, fmt.Errorf("mc: unsupported trace schema %d (this build reads <= %d)", t.Schema, trace.TraceSchemaVersion)
	}
	if t.Kind != "counterexample" {
		return nil, fmt.Errorf("mc: trace kind %q is not a counterexample", t.Kind)
	}
	return &t, nil
}

// JSON renders the trace for storage.
func (t *Trace) JSON() []byte {
	raw, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		panic(err) // Trace contains only marshalable fields
	}
	return append(raw, '\n')
}

// Replay re-executes a trace action by action, validating each guard
// and re-checking every invariant along the way. It returns the first
// violation encountered (the regression the trace witnesses), or nil if
// the schedule completes cleanly — which, for a committed counterexample,
// means the bug it caught has been fixed (or the model has drifted).
func Replay(t *Trace) (*Violation, error) {
	cfg, err := t.ConfigOf()
	if err != nil {
		return nil, err
	}
	st := newState(cfg)
	seen := map[string]struct{}{string(encode(cfg, st, nil)): {}}
	for i, as := range t.Actions {
		a, err := parseAction(as)
		if err != nil {
			return nil, err
		}
		x := &stepCtx{cfg: cfg, st: st}
		x.apply(a)
		prefix := *t
		prefix.Actions = t.Actions[:i+1]
		if kind, why, _ := x.verdict(); kind != "" {
			return &Violation{Kind: kind, Detail: why, Trace: prefix}, nil
		}
		key := string(encode(cfg, st, nil))
		if _, dup := seen[key]; dup {
			// A livelock trace ends by re-entering an earlier state.
			return &Violation{Kind: VLivelock, Detail: "schedule revisits an earlier state", Trace: prefix}, nil
		}
		seen[key] = struct{}{}
	}
	// A deadlock trace ends at a terminal state; diagnose it the same
	// way the explorer does.
	if len(enabledActions(cfg, st)) == 0 {
		if why := checkDeadlock(cfg, st); why != "" {
			return &Violation{Kind: VDeadlock, Detail: why, Trace: *t}, nil
		}
	}
	return nil, nil
}
