// Package service is coherenced's serving layer: a versioned REST/SSE
// API over the simulator, backed by a content-addressed result cache, a
// bounded priority job scheduler, and a graceful-drain lifecycle.
//
// Every job is described by a canonical JobSpec. Because the simulator
// is deterministic — a spec's result is byte-identical at any worker
// count (see internal/runner) — the SHA-256 of the canonical spec
// encoding fully addresses its result: identical in-flight submissions
// are deduplicated onto one run, and completed results are served from
// a bounded LRU without re-simulating.
package service

import (
	"encoding/json"

	"coherencesim/internal/metrics"
	"coherencesim/internal/trace"
)

// Job states reported by the API.
const (
	StatusQueued   = "queued"
	StatusRunning  = "running"
	StatusDone     = "done"
	StatusFailed   = "failed"
	StatusCanceled = "canceled"
)

// JobSpec is the description of one simulation job, and the only one:
// a POST /v1/jobs body is its JSON spelling, coherencesim's flags are
// its command-line spelling, and Canonicalize then the executor
// (BatchExecutor) is the one path either takes. Kind selects between the
// two shapes:
//
//   - "experiment": one catalog experiment (fig8..fig16, ablations, ...)
//     at quick or paper scale, as tables or CSV (coherencesim -experiment).
//   - "run": one (construct, protocol, machine size) simulation
//     (coherencesim -run).
//
// Specs are canonicalized before hashing (defaults applied, names
// normalized, non-applicable fields cleared), so equivalent requests —
// whatever their JSON field order or casing — map to the same content
// hash and therefore the same cached result. TimeoutSec is the one
// field excluded from the hash: a deadline changes whether a result is
// produced, never what it contains.
type JobSpec struct {
	Kind            string `json:"kind"`                       // experiment | run
	Experiment      string `json:"experiment,omitempty"`       // catalog name (kind=experiment)
	Run             string `json:"run,omitempty"`              // lock | barrier | reduction (kind=run)
	Algo            string `json:"algo,omitempty"`             // tk|mcs|ucmcs, cb|db|tb, sr|pr (kind=run)
	Protocol        string `json:"protocol,omitempty"`         // WI | PU | CU (kind=run)
	Procs           int    `json:"procs,omitempty"`            // machine size 1..64 (kind=run)
	Iterations      int    `json:"iterations,omitempty"`       // iteration override, 0 = default (kind=run)
	Scale           string `json:"scale,omitempty"`            // quick | paper (kind=experiment)
	Format          string `json:"format,omitempty"`           // table | csv (kind=experiment)
	MetricsInterval uint64 `json:"metrics_interval,omitempty"` // sampling interval in simulated cycles
	Breakdown       bool   `json:"breakdown,omitempty"`        // collect the stall-attribution breakdown
	TimeoutSec      int    `json:"timeout_sec,omitempty"`      // per-job deadline; excluded from the hash
}

// JobResult is the deterministic payload of a completed job.
type JobResult struct {
	// Output is the rendered tables (or CSV, or run summary):
	// coherencesim prints it to stdout as is.
	Output string `json:"output"`
	// Metrics is the deterministic metrics report for the job's runs;
	// its WriteJSON is coherencesim's -metrics-out file.
	Metrics *metrics.Report `json:"metrics,omitempty"`
	// Breakdown is the deterministic stall-attribution breakdown report
	// for the job's runs, present only when the spec set Breakdown; its
	// WriteJSON is coherencesim's -breakdown-out file.
	Breakdown *trace.BreakdownReport `json:"breakdown,omitempty"`
}

// JobStatus is the API's job document, returned by POST /v1/jobs and
// GET /v1/jobs/{id}. For terminal jobs the marshaled document is built
// exactly once and stored in the result cache, so repeated reads are
// byte-identical.
type JobStatus struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Spec   JobSpec         `json:"spec"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// HotBlockList is the GET /v1/jobs/{id}/hotblocks response: the job's
// hottest coherence blocks, merged across its breakdown runs and ranked
// by attributed transaction cycles.
type HotBlockList struct {
	ID     string           `json:"id"`
	Blocks []trace.HotBlock `json:"blocks"`
}

// ExperimentInfo is one entry of the GET /v1/experiments listing.
type ExperimentInfo struct {
	Name        string   `json:"name"`
	Description string   `json:"description"`
	Formats     []string `json:"formats"`
}

// RunInfo describes the kind=run request surface.
type RunInfo struct {
	Run       string   `json:"run"`
	Algos     []string `json:"algos"`
	Protocols []string `json:"protocols"`
}

// ExperimentList is the GET /v1/experiments response document.
type ExperimentList struct {
	Experiments []ExperimentInfo `json:"experiments"`
	Runs        []RunInfo        `json:"runs"`
	Scales      []string         `json:"scales"`
}

// ProgressEvent is the SSE payload streamed on /v1/jobs/{id}/events
// while a job's sweep is running: one snapshot per finished simulation.
type ProgressEvent struct {
	JobsDone  int    `json:"jobs_done"`
	JobsTotal int    `json:"jobs_total"`
	SimCycles uint64 `json:"sim_cycles"`
	ETAMillis int64  `json:"eta_ms"`
	Label     string `json:"label,omitempty"`
}

// apiError is the uniform error envelope.
type apiError struct {
	Error string `json:"error"`
}
