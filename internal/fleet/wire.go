// Package fleet distributes sweep points across worker processes.
//
// The fabric is coordinator-centric and pull-based: workers own no
// listener and initiate every exchange over the coordinator's existing
// REST surface (POST /v1/fleet/*). A worker registers, then long-polls
// for a *batch* of shards — each one serializable experiments.Point —
// executes them with experiments.RunPointForked against a
// worker-lifetime result memo, and posts each result back as it
// finishes. The coordinator leases shards,
// heartbeat-times-out dead workers, requeues their shards with bounded
// backoff, steals the tail half of a loaded worker's queue for an idle
// poller, and assembles results strictly in submission order, so a
// document produced by any number of workers under any steal or failure
// interleaving is byte-identical to the single-process one (the
// simulator is deterministic; assembly order is the only degree of
// freedom, and it is pinned).
//
// Because a Point's content hash fully addresses its result, the
// coordinator also consults a shard-level cache (conventionally the
// daemon's durable content-addressed store) before dispatching: a sweep
// re-run after a restart re-simulates only what the store no longer
// holds.
package fleet

import "coherencesim/internal/experiments"

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	ID string `json:"id"`
}

// RegisterResponse acknowledges registration and tells the worker how
// often to heartbeat while it is busy executing (polls count as
// heartbeats on their own).
type RegisterResponse struct {
	ID                string `json:"id"`
	HeartbeatInterval string `json:"heartbeat_interval"` // time.Duration string
}

// HeartbeatRequest keeps a busy worker alive between polls and reports
// how many leased shards it holds but has not started — the
// coordinator's signal for how much of the worker's queue is stealable.
type HeartbeatRequest struct {
	Worker string `json:"worker"`
	Queued int    `json:"queued,omitempty"`
}

// HeartbeatResponse answers heartbeats and completions. It carries
// shard revocations: IDs this worker still holds that were reassigned
// (stolen by an idle worker, or completed first by another lease
// holder). The worker drops them unexecuted;
// executing one anyway is harmless — identical points produce identical
// bytes and the duplicate completion is a no-op.
type HeartbeatResponse struct {
	Revoked []string `json:"revoked,omitempty"`
}

// PollRequest asks for up to Max shards in one round-trip (long-poll:
// the coordinator holds the request until work is available or its poll
// window lapses). The coordinator clamps Max to its own batch cap;
// Max <= 1 requests per-point dispatch.
type PollRequest struct {
	Worker string `json:"worker"`
	Max    int    `json:"max,omitempty"`
}

// Shard is one leased unit of work.
type Shard struct {
	ID    string            `json:"id"`
	Key   string            `json:"key"` // the point's content address
	Point experiments.Point `json:"point"`
}

// PollResponse carries the leased batch — repeats of a warm_fork point
// grouped (same group = same point = one simulation in the worker's
// memo) — or nothing (an empty poll; the worker simply polls again),
// plus any pending revocations for this worker.
type PollResponse struct {
	Shards  []Shard  `json:"shards,omitempty"`
	Revoked []string `json:"revoked,omitempty"`
}

// ShardResult is one shard's outcome inside a batched completion.
// Exactly one of Result and Error is set.
type ShardResult struct {
	Shard  string                   `json:"shard"`
	Result *experiments.PointResult `json:"result,omitempty"`
	Error  string                   `json:"error,omitempty"`
}

// CompleteRequest posts shard outcomes — a worker sends each as it
// finishes — and is answered with a HeartbeatResponse. Queued reports
// the worker's remaining unstarted backlog, refreshing the
// coordinator's steal accounting at completion time.
type CompleteRequest struct {
	Worker  string        `json:"worker"`
	Results []ShardResult `json:"results"`
	Queued  int           `json:"queued,omitempty"`
}
