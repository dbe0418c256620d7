// Command coherencemc runs the bounded exhaustive protocol model checker
// (internal/mc) over a configuration matrix and reports reachable-state
// counts and any invariant violations.
//
// Usage:
//
//	coherencemc                                   # default CI matrix
//	coherencemc -protocol WI -procs 2 -blocks 1   # one configuration
//	coherencemc -protocol WI,PU,CU -procs 2,3 -blocks 1,2 -depth 2
//	coherencemc -json report.json                 # machine-readable report
//	coherencemc -baseline mc_baseline.json        # fail on any change to the counts
//	coherencemc -replay trace.json                # re-execute a counterexample
//	coherencemc -fault skip-inv-ack -protocol WI  # checker self-test demo
//
// Exit status: 0 on a clean exhaustive run, 1 on any invariant violation
// or baseline mismatch, 2 on usage/configuration errors. Violations
// print (and with -json, serialize) replayable counterexample traces.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"coherencesim/internal/mc"
	"coherencesim/internal/proto"
)

// reportEntry is one configuration's result in the JSON report.
type reportEntry struct {
	Protocol    string      `json:"protocol"`
	Procs       int         `json:"procs"`
	Blocks      int         `json:"blocks"`
	Words       int         `json:"words"`
	Depth       int         `json:"depth"` // ops per processor
	States      int         `json:"states"`
	Transitions int         `json:"transitions"`
	Quiescent   int         `json:"quiescent"`
	MaxDepth    int         `json:"max_depth"`
	Violations  []violation `json:"violations,omitempty"`
	Millis      int64       `json:"ms"`
}

type violation struct {
	Kind   string   `json:"kind"`
	Detail string   `json:"detail"`
	Trace  mc.Trace `json:"trace"`
}

type report struct {
	Entries []reportEntry `json:"entries"`
}

// key identifies a configuration in baseline comparisons.
func (e *reportEntry) key() string {
	return fmt.Sprintf("%s/p%d/b%d/w%d/d%d", e.Protocol, e.Procs, e.Blocks, e.Words, e.Depth)
}

func parseProtocols(s string) ([]proto.Protocol, error) {
	var out []proto.Protocol
	for _, tok := range strings.Split(s, ",") {
		p, err := proto.ParseProtocol(strings.ToUpper(strings.TrimSpace(tok)))
		if err != nil {
			return nil, fmt.Errorf("unknown protocol %q", tok)
		}
		out = append(out, p)
	}
	return out, nil
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(tok))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %v", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func parseFaults(s string) (mc.Faults, error) {
	var f mc.Faults
	if s == "" {
		return f, nil
	}
	for _, tok := range strings.Split(s, ",") {
		if !f.Set(strings.TrimSpace(tok)) {
			return f, fmt.Errorf("unknown fault %q (%s)", tok, strings.Join(proto.FaultNames(), ", "))
		}
	}
	return f, nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("coherencemc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		protocols = fs.String("protocol", "WI,PU,CU", "comma list of protocols to check")
		procs     = fs.String("procs", "2,3", "comma list of processor counts (2-4)")
		blocks    = fs.String("blocks", "1,2", "comma list of block counts (1-2)")
		words     = fs.Int("words", 1, "words per block (1-2)")
		depth     = fs.Int("depth", 0, "operations per processor (0 = auto: 2 at 2 procs, 1 beyond)")
		threshold = fs.Int("cu-threshold", 4, "competitive-update counter threshold (1-255)")
		maxStates = fs.Int("max-states", 0, "abort beyond this many states (0 = unlimited)")
		opSet     = fs.String("ops", "", "restrict issue alphabet (comma list of read,write,atomic,flush)")
		faultList = fs.String("fault", "", "inject protocol faults, a comma list of "+strings.Join(proto.FaultNames(), ",")+" (checker self-test)")
		jsonOut   = fs.String("json", "", "write the JSON report to this file")
		baseline  = fs.String("baseline", "", "fail where a configuration's report differs from this committed one (ms aside)")
		replay    = fs.String("replay", "", "replay a counterexample trace instead of exploring")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *replay != "" {
		return runReplay(*replay, stdout, stderr)
	}

	protos, err := parseProtocols(*protocols)
	var ops []mc.OpKind
	if err == nil {
		ops, err = parseOps(*opSet)
	}
	if err == nil && (*threshold < 1 || *threshold > 255) {
		err = fmt.Errorf("cu-threshold %d out of range [1,255]", *threshold)
	}
	var procList, blockList []int
	if err == nil {
		procList, err = parseInts(*procs)
	}
	if err == nil {
		blockList, err = parseInts(*blocks)
	}
	var faults mc.Faults
	if err == nil {
		faults, err = parseFaults(*faultList)
	}
	if err != nil {
		fmt.Fprintln(stderr, "coherencemc:", err)
		return 2
	}

	var rep report
	violated := false
	for _, p := range protos {
		for _, np := range procList {
			for _, nb := range blockList {
				cfg := mc.Config{
					Protocol:    p,
					Procs:       np,
					Blocks:      nb,
					Words:       *words,
					OpsPerProc:  *depth,
					CUThreshold: uint8(*threshold),
					OpSet:       ops,
					Faults:      faults,
					MaxStates:   *maxStates,
				}
				if cfg.OpsPerProc == 0 {
					// Auto depth: exhaustive budget where tractable,
					// shallower as the processor axis widens.
					cfg.OpsPerProc = 2
					if np > 2 {
						cfg.OpsPerProc = 1
					}
				}
				start := time.Now()
				res, err := mc.Explore(cfg)
				if err != nil {
					fmt.Fprintf(stderr, "coherencemc: %v/p%d/b%d: %v\n", p, np, nb, err)
					return 2
				}
				e := reportEntry{
					Protocol: p.String(), Procs: np, Blocks: nb, Words: cfg.Words,
					Depth: cfg.OpsPerProc, States: res.States, Transitions: res.Transitions,
					Quiescent: res.Quiescent, MaxDepth: res.MaxDepth,
					Millis: time.Since(start).Milliseconds(),
				}
				for _, v := range res.Violations {
					violated = true
					e.Violations = append(e.Violations, violation{Kind: string(v.Kind), Detail: v.Detail, Trace: v.Trace})
				}
				rep.Entries = append(rep.Entries, e)
				status := "ok"
				if len(e.Violations) > 0 {
					status = "VIOLATION"
				}
				fmt.Fprintf(stdout, "%-3s procs=%d blocks=%d words=%d depth=%d  states=%-8d transitions=%-8d quiescent=%-6d %6dms  %s\n",
					e.Protocol, e.Procs, e.Blocks, e.Words, e.Depth, e.States, e.Transitions, e.Quiescent, e.Millis, status)
				for _, v := range e.Violations {
					fmt.Fprintf(stdout, "    %s: %s\n    replay: coherencemc -replay <trace.json> (trace in JSON report)\n", v.Kind, v.Detail)
					if *jsonOut == "" {
						fmt.Fprintf(stdout, "%s\n", v.Trace.JSON())
					}
				}
			}
		}
	}

	if *jsonOut != "" {
		raw, err := json.MarshalIndent(&rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(raw, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "coherencemc: writing report:", err)
			return 2
		}
	}

	if *baseline != "" {
		changed, err := compareBaseline(&rep, *baseline, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "coherencemc:", err)
			return 2
		}
		if changed {
			return 1
		}
	}
	if violated {
		fmt.Fprintln(stdout, "FAIL: invariant violations found")
		return 1
	}
	fmt.Fprintln(stdout, "OK: all configurations explored exhaustively, no violations")
	return 0
}

func parseOps(s string) ([]mc.OpKind, error) {
	if s == "" {
		return nil, nil
	}
	var out []mc.OpKind
	for _, tok := range strings.Split(s, ",") {
		k, err := mc.ParseOpKind(strings.TrimSpace(tok))
		if err != nil {
			return nil, err
		}
		out = append(out, k)
	}
	return out, nil
}

// compareBaseline fails every configuration whose entry differs from the
// committed baseline's in any field but ms, in either direction: a model
// silently exploring less space is a coverage regression, and one
// exploring more (or counting another edge) has changed without saying
// so. Configurations the baseline lacks are not compared.
func compareBaseline(rep *report, path string, stdout *os.File) (bool, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		return false, fmt.Errorf("bad baseline %s: %v", path, err)
	}
	// A reportEntry always marshals, so both Marshal errors are dropped.
	baseBy := make(map[string][]byte, len(base.Entries))
	for _, e := range base.Entries {
		e.Millis = 0
		baseBy[e.key()], _ = json.Marshal(e)
	}
	changed := false
	for _, e := range rep.Entries {
		want, ok := baseBy[e.key()]
		if !ok {
			continue
		}
		e.Millis = 0
		if got, _ := json.Marshal(e); !bytes.Equal(got, want) {
			changed = true
			fmt.Fprintf(stdout, "BASELINE MISMATCH: %s\n    got      %s\n    baseline %s\n", e.key(), got, want)
		}
	}
	if changed {
		fmt.Fprintf(stdout, "if the change is intended, regenerate the baseline: coherencemc -json %s\n", path)
	}
	return changed, nil
}

// runReplay re-executes a committed counterexample trace.
func runReplay(path string, stdout, stderr *os.File) int {
	t, err := mc.LoadTrace(path)
	if err != nil {
		fmt.Fprintln(stderr, "coherencemc:", err)
		return 2
	}
	v, err := mc.Replay(t)
	if err != nil {
		fmt.Fprintln(stderr, "coherencemc:", err)
		return 2
	}
	if v == nil {
		fmt.Fprintln(stdout, "trace replays cleanly (the bug it witnessed is fixed)")
		return 0
	}
	fmt.Fprintf(stdout, "reproduced %s after %d actions: %s\n", v.Kind, len(v.Trace.Actions), v.Detail)
	return 1
}
