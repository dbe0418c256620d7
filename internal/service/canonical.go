package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"coherencesim/internal/experiments"
)

// Default values applied during canonicalization.
const (
	defaultScale           = "quick"
	defaultFormat          = "table"
	defaultProcs           = 32
	defaultMetricsInterval = 10000 // matches the CLI's -metrics-interval default
)

// algoAliases maps every accepted spelling of a run algorithm to its
// canonical short code, per run kind — the same aliases the CLI's
// -lock/-barrier/-reduction flags accept.
var algoAliases = map[string]map[string]string{
	"lock": {
		"tk": "tk", "ticket": "tk",
		"mcs": "mcs",
		"uc":  "ucmcs", "ucmcs": "ucmcs",
	},
	"barrier": {
		"cb": "cb", "central": "cb",
		"db": "db", "dissemination": "db",
		"tb": "tb", "tree": "tb",
	},
	"reduction": {
		"sr": "sr", "sequential": "sr",
		"pr": "pr", "parallel": "pr",
	},
}

// runDefaultAlgo is the algorithm used when a run spec leaves it empty
// (mirroring the CLI flag defaults).
var runDefaultAlgo = map[string]string{"lock": "tk", "barrier": "db", "reduction": "sr"}

// Canonicalize validates a job spec and rewrites it into its canonical
// form: names lower-cased (protocol upper-cased), defaults applied, and
// every field that does not apply to the spec's kind cleared. Two specs
// that describe the same job canonicalize identically, which is what
// makes the content hash an address for the result.
func Canonicalize(s JobSpec) (JobSpec, error) {
	c := JobSpec{
		Kind:            strings.ToLower(strings.TrimSpace(s.Kind)),
		MetricsInterval: s.MetricsInterval,
		Breakdown:       s.Breakdown,
		TimeoutSec:      s.TimeoutSec,
	}
	if c.Kind == "" {
		switch {
		case s.Experiment != "":
			c.Kind = "experiment"
		case s.Run != "":
			c.Kind = "run"
		default:
			return c, fmt.Errorf("spec needs a kind (experiment or run)")
		}
	}
	if c.MetricsInterval == 0 {
		c.MetricsInterval = defaultMetricsInterval
	}
	if c.TimeoutSec < 0 {
		return c, fmt.Errorf("timeout_sec must be >= 0")
	}

	switch c.Kind {
	case "experiment":
		c.Experiment = strings.ToLower(strings.TrimSpace(s.Experiment))
		if c.Experiment == "" {
			return c, fmt.Errorf("experiment kind needs an experiment name")
		}
		entry, ok := experiments.Lookup(c.Experiment)
		if !ok {
			return c, fmt.Errorf("unknown experiment %q (see GET /v1/experiments)", s.Experiment)
		}
		c.Scale = strings.ToLower(s.Scale)
		switch c.Scale {
		case "":
			c.Scale = defaultScale
		case "quick", "paper":
		default:
			return c, fmt.Errorf("unknown scale %q (want quick or paper)", s.Scale)
		}
		c.Format = strings.ToLower(s.Format)
		switch c.Format {
		case "":
			c.Format = defaultFormat
		case "table":
		case "csv":
			if !entry.HasCSV() {
				return c, fmt.Errorf("experiment %q has no CSV form", c.Experiment)
			}
		default:
			return c, fmt.Errorf("unknown format %q (want table or csv)", s.Format)
		}
		// Warm-forked sweeps are deterministic but differ from single-phase
		// ones, so the flag is part of the job's identity (and hash).
		c.WarmFork = s.WarmFork
	case "run":
		c.Run = strings.ToLower(strings.TrimSpace(s.Run))
		aliases, ok := algoAliases[c.Run]
		if !ok {
			return c, fmt.Errorf("unknown run kind %q (want lock, barrier, or reduction)", s.Run)
		}
		algo := strings.ToLower(strings.TrimSpace(s.Algo))
		if algo == "" {
			algo = runDefaultAlgo[c.Run]
		}
		c.Algo, ok = aliases[algo]
		if !ok {
			return c, fmt.Errorf("unknown %s algorithm %q", c.Run, s.Algo)
		}
		switch strings.ToUpper(strings.TrimSpace(s.Protocol)) {
		case "", "WI", "I":
			c.Protocol = "WI"
		case "PU", "U":
			c.Protocol = "PU"
		case "CU", "C":
			c.Protocol = "CU"
		default:
			return c, fmt.Errorf("unknown protocol %q (want WI, PU, or CU)", s.Protocol)
		}
		c.Procs = s.Procs
		if c.Procs == 0 {
			c.Procs = defaultProcs
		}
		if c.Procs < 1 || c.Procs > 64 {
			return c, fmt.Errorf("procs %d out of range 1..64", s.Procs)
		}
		if s.Iterations < 0 {
			return c, fmt.Errorf("iterations must be >= 0")
		}
		c.Iterations = s.Iterations
		c.Format = defaultFormat
	default:
		return c, fmt.Errorf("unknown kind %q (want experiment or run)", s.Kind)
	}
	return c, nil
}

// Hash returns the content address of a canonical spec: the hex SHA-256
// of its canonical JSON encoding (struct field order, so independent of
// the order the client wrote the fields in). The deadline is excluded —
// it bounds the computation, it does not alter the deterministic
// result. Call only with a spec returned by Canonicalize.
func Hash(c JobSpec) string {
	c.TimeoutSec = 0
	b, err := json.Marshal(c)
	if err != nil {
		// A JobSpec of plain strings and ints cannot fail to marshal.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
