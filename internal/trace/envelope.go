package trace

// TraceSchemaVersion is bumped whenever the JSON shape of any trace
// document (model-checker counterexamples, transaction breakdowns,
// flow-linked timelines) changes incompatibly.
const TraceSchemaVersion = 1

// Envelope is the shared header of every JSON trace document the
// simulator emits: the model checker's replayable counterexample traces
// (cmd/coherencemc -replay), the transaction-breakdown reports
// (-breakdown-out, GET /v1/jobs/{id}/breakdown), and the flow-linked
// timelines (-timeline-out). Keeping the header in one place means every
// consumer can dispatch on the same three fields instead of each
// document inventing its own envelope.
type Envelope struct {
	Schema   int    `json:"schema"`
	Kind     string `json:"kind,omitempty"`     // counterexample | breakdown | txn-timeline
	Protocol string `json:"protocol,omitempty"` // WI | PU | CU when single-protocol
	Seed     int64  `json:"seed,omitempty"`     // generator seed when one applies
}
