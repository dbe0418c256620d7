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
	defaultMetricsInterval = 10000
)

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
			return c, fmt.Errorf("unknown experiment %q", s.Experiment)
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
	case "run":
		c.Run = strings.ToLower(strings.TrimSpace(s.Run))
		kind, ok := runKinds[c.Run]
		if !ok {
			return c, fmt.Errorf("unknown run kind %q (want lock, barrier, or reduction)", s.Run)
		}
		c.Algo, ok = kind.algos[strings.ToLower(strings.TrimSpace(s.Algo))]
		if !ok {
			return c, fmt.Errorf("unknown %s algorithm %q", c.Run, s.Algo)
		}
		pr, ok := protocols[strings.ToUpper(strings.TrimSpace(s.Protocol))]
		if !ok {
			return c, fmt.Errorf("unknown protocol %q (want WI, PU, or CU)", s.Protocol)
		}
		c.Protocol = pr.String()
		c.Procs = s.Procs
		if c.Procs == 0 {
			c.Procs = defaultProcs
		}
		if c.Procs < 1 || c.Procs > 64 {
			return c, fmt.Errorf("procs %d out of range 1..64", s.Procs)
		}
		switch {
		case s.Iterations < 0:
			return c, fmt.Errorf("iterations %d is negative", s.Iterations)
		case c.Run == "lock" && s.Iterations > 0 && s.Iterations < c.Procs:
			// The lock loop gives each processor iterations/procs acquires;
			// none at all leaves no latency to average.
			return c, fmt.Errorf("iterations %d is fewer than one acquire per processor (procs %d)", s.Iterations, c.Procs)
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
