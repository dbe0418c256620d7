package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// BreakdownSnapshot is one run's overhead-breakdown document: per-proc
// per-category simulated-cycle totals plus transaction statistics. It is
// produced by Tracer.Snapshot at the end of a traced run and is fully
// deterministic.
type BreakdownSnapshot struct {
	Procs      int           `json:"procs"`
	Cycles     uint64        `json:"cycles"`
	Categories []string      `json:"categories"`
	PerProc    [][]uint64    `json:"per_proc"` // [proc][category] cycles
	Totals     []uint64      `json:"totals"`   // [category] cycles, summed over procs
	Txns       []TxnKindStat `json:"txns,omitempty"`
	Latency    LatencyHist   `json:"latency"`
	HotBlocks  []HotBlock    `json:"hot_blocks,omitempty"`
	Hops       uint64        `json:"hops"`
	Flits      uint64        `json:"flits"`
	AckDrain   uint64        `json:"ack_drain_cycles"`
	Dropped    DroppedCounts `json:"dropped"`
}

// TxnKindStat is the count and cumulative latency of one transaction kind.
type TxnKindStat struct {
	Kind   string `json:"kind"`
	Count  uint64 `json:"count"`
	Cycles uint64 `json:"cycles"`
}

// LatencyHist is the transaction-latency histogram (power-of-two
// buckets; Le 0 means the open-ended last bucket).
type LatencyHist struct {
	Count   uint64          `json:"count"`
	Sum     uint64          `json:"sum"`
	Buckets []LatencyBucket `json:"buckets,omitempty"`
}

// LatencyBucket is one non-cumulative histogram bucket.
type LatencyBucket struct {
	Le uint64 `json:"le"` // inclusive upper edge in cycles; 0 = +Inf
	N  uint64 `json:"n"`
}

// HotBlock is one entry of the per-block heat list, hottest first.
type HotBlock struct {
	Block  uint32 `json:"block"`
	Txns   uint64 `json:"txns"`
	Cycles uint64 `json:"cycles"`
}

// DroppedCounts reports span/stall records beyond the retention cap
// (the aggregate breakdown still covers them).
type DroppedCounts struct {
	Spans  uint64 `json:"spans,omitempty"`
	Stalls uint64 `json:"stalls,omitempty"`
}

// BreakdownRun is one labeled run inside a BreakdownReport.
type BreakdownRun struct {
	Label     string             `json:"label"`
	Breakdown *BreakdownSnapshot `json:"breakdown"`
}

// BreakdownReport is the top-level exported breakdown document,
// labeled run-by-run exactly like the metrics report.
type BreakdownReport struct {
	Envelope
	Runs []BreakdownRun `json:"runs"`
}

// WriteJSON writes the report as indented JSON (deterministic).
func (r *BreakdownReport) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Table renders the paper-style overhead-breakdown table: one row per
// run, one column per category, each cell the category's share of total
// processor-cycles (procs x cycles) in percent. Pure integer inputs and
// fixed %.1f formatting keep the rendering byte-identical across worker
// counts and machine reuse.
func (r *BreakdownReport) Table() string {
	var b strings.Builder
	cats := CategoryNames()
	labelW := len("run")
	for _, run := range r.Runs {
		if len(run.Label) > labelW {
			labelW = len(run.Label)
		}
	}
	fmt.Fprintf(&b, "%-*s", labelW, "run")
	for _, c := range cats {
		fmt.Fprintf(&b, "  %*s", columnWidth(c), c)
	}
	fmt.Fprintf(&b, "  %12s\n", "txn-lat(avg)")
	for _, run := range r.Runs {
		s := run.Breakdown
		if s == nil {
			continue
		}
		fmt.Fprintf(&b, "%-*s", labelW, run.Label)
		denom := float64(s.Cycles) * float64(s.Procs)
		for c := range cats {
			pct := 0.0
			if denom > 0 {
				pct = 100 * float64(s.Totals[c]) / denom
			}
			fmt.Fprintf(&b, "  %*s", columnWidth(cats[c]), fmt.Sprintf("%.1f%%", pct))
		}
		avg := 0.0
		if s.Latency.Count > 0 {
			avg = float64(s.Latency.Sum) / float64(s.Latency.Count)
		}
		fmt.Fprintf(&b, "  %12s\n", fmt.Sprintf("%.1fcy", avg))
	}
	return b.String()
}

// columnWidth keeps every category column wide enough for its header
// and a "100.0%" cell.
func columnWidth(header string) int {
	if len(header) < 6 {
		return 6
	}
	return len(header)
}

// ProcTable renders one run's per-processor breakdown (cycles, not
// percentages) — the -run mode's detailed view.
func (s *BreakdownSnapshot) ProcTable() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s", "proc")
	for _, c := range s.Categories {
		fmt.Fprintf(&b, "  %*s", columnWidth(c), c)
	}
	b.WriteByte('\n')
	for p, row := range s.PerProc {
		fmt.Fprintf(&b, "%4d", p)
		for c := range s.Categories {
			fmt.Fprintf(&b, "  %*d", columnWidth(s.Categories[c]), row[c])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// BreakdownCollector assembles labeled per-run snapshots into a
// BreakdownReport. Like metrics.Collector it is fed from the sweeps'
// submission-ordered assembly loops, so the report is deterministic at
// any worker count; a nil *BreakdownCollector ignores Add so sweeps can
// thread one unconditionally.
type BreakdownCollector struct {
	runs []BreakdownRun
}

// NewBreakdownCollector builds an empty collector.
func NewBreakdownCollector() *BreakdownCollector { return &BreakdownCollector{} }

// Enabled reports whether snapshots are being collected.
func (c *BreakdownCollector) Enabled() bool { return c != nil }

// Add appends one labeled snapshot; nil snapshots and nil collectors
// are ignored.
func (c *BreakdownCollector) Add(label string, s *BreakdownSnapshot) {
	if c == nil || s == nil {
		return
	}
	c.runs = append(c.runs, BreakdownRun{Label: label, Breakdown: s})
}

// Report builds the exported document from the collected runs.
func (c *BreakdownCollector) Report() *BreakdownReport {
	return &BreakdownReport{
		Envelope: Envelope{Schema: TraceSchemaVersion, Kind: "breakdown"},
		Runs:     c.runs,
	}
}
