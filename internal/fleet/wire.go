// Package fleet distributes sweep points across worker processes.
//
// The fabric is coordinator-centric and pull-based: workers own no
// listener and initiate every exchange over the coordinator's existing
// REST surface (POST /v1/fleet/*). The coordinator is a plain lease
// queue — one FIFO of pending shards, each one distinct serializable
// experiments.Point, and the running leases, each held by one execution
// slot of one worker — kept by a clock-free state machine (queue.go)
// behind a thin shell that owns the lock, the handlers and the timers.
// A worker registers and runs one loop per slot: long-poll for one
// shard, execute it with experiments.RunPointForked, post the result —
// and the response to that completion carries the slot's next shard
// when one is eligible, so a busy fleet costs one HTTP request per
// distinct point and a leased shard is always a running shard.
// Nothing is leased ahead of execution, so a fast worker simply comes
// back for more sooner than a slow one and there is no unstarted tail
// to rebalance. The coordinator heartbeat-times-out dead workers,
// requeues their shards with bounded backoff, hands a slot back a lease
// whose response was lost, runs shards itself (GOMAXPROCS at a time)
// while no worker is live, and assembles results strictly in submission
// order, so a document produced by any number of workers under any
// failure interleaving is byte-identical to the single-process one (the
// simulator is deterministic; assembly order is the only degree of
// freedom, and it is pinned).
//
// Because a Point's content hash fully addresses its result, the
// coordinator owns reuse for the whole fleet: a point is answered from
// its memo — memory, then the memo's durable layer (conventionally the
// daemon's content-addressed store, so a sweep re-run after a restart
// re-simulates only what the store no longer holds) — else attached to
// the shard already outstanding for the same key, and only else leased.
// Workers execute; they remember nothing.
package fleet

import "coherencesim/internal/experiments"

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	ID string `json:"id"`
}

// RegisterResponse acknowledges registration and tells the worker how
// often to heartbeat while it is busy executing (polls and completions
// count as heartbeats on their own).
type RegisterResponse struct {
	ID                string `json:"id"`
	HeartbeatInterval string `json:"heartbeat_interval"` // time.Duration string
}

// WorkerRequest is the body of a heartbeat (keeps a busy worker alive
// between completions) and of a poll (long-poll: the coordinator holds
// the request until a shard is eligible or its poll window lapses).
type WorkerRequest struct {
	Worker string `json:"worker"`
	Slot   int    `json:"slot,omitempty"` // the polling execution slot
}

// Shard is one leased unit of work.
type Shard struct {
	ID    string            `json:"id"`
	Key   string            `json:"key"` // the point's content address
	Point experiments.Point `json:"point"`
}

// LeaseResponse answers polls and completions with the requesting
// slot's next shard, or nothing: after an empty poll the worker polls
// again, after an empty completion it goes back to polling.
type LeaseResponse struct {
	Shard *Shard `json:"shard,omitempty"`
}

// CompleteRequest posts one shard's outcome; exactly one of Result and
// Error is set. It is answered with a LeaseResponse.
type CompleteRequest struct {
	Worker string                   `json:"worker"`
	Slot   int                      `json:"slot,omitempty"`
	Shard  string                   `json:"shard"`
	Result *experiments.PointResult `json:"result,omitempty"`
	Error  string                   `json:"error,omitempty"`
}
