package metrics

import (
	"encoding/json"
	"fmt"
	"io"

	"coherencesim/internal/sim"
)

// ReportVersion is bumped whenever the exported JSON schema changes
// incompatibly, so downstream consumers can detect what they are reading.
const ReportVersion = 1

// Run is one simulation's metrics inside a Report, labeled the way the
// experiment runner labels its jobs ("Figure 8/tk-i/P=4").
type Run struct {
	Label   string    `json:"label"`
	Metrics *Snapshot `json:"metrics"`
}

// Report is the top-level exported metrics document.
type Report struct {
	Version  int    `json:"version"`
	Interval uint64 `json:"interval,omitempty"`
	Runs     []Run  `json:"runs"`
}

// WriteJSON writes the report as indented JSON. encoding/json sorts map
// keys and the run list is in collection order, so the output is
// deterministic.
func (r *Report) WriteJSON(w io.Writer) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// WriteCSV dumps every run's sampled time series in long form:
// one row per (run, frame, counter) with the interval bounds and the
// counter's delta over that interval. Runs without series contribute no
// rows. The output is deterministic: runs in collection order, counters
// sorted by name.
func (r *Report) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "label,frame,t_start,t_end,counter,delta"); err != nil {
		return err
	}
	for _, run := range r.Runs {
		s := run.Metrics
		if s == nil || s.Series == nil {
			continue
		}
		se := s.Series
		for _, name := range s.CounterNames() {
			deltas := se.Deltas[name]
			for f, d := range deltas {
				t0 := uint64(f) * se.Interval
				t1 := t0 + se.Interval
				if t1 > se.End {
					t1 = se.End
				}
				if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%s,%d\n",
					run.Label, f, t0, t1, name, d); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Collector assembles per-run snapshots into a Report. Experiment sweeps
// feed it from their (single-goroutine, submission-ordered) result
// assembly loops, so the collected report is deterministic at any worker
// count. A nil *Collector ignores Add, letting sweeps thread one
// unconditionally.
type Collector struct {
	interval sim.Time
	runs     []Run
}

// NewCollector builds a collector whose runs sample at the given
// interval (0 disables time series).
func NewCollector(interval sim.Time) *Collector {
	return &Collector{interval: interval}
}

// Interval returns the sampling interval runs should use (0 on nil).
func (c *Collector) Interval() sim.Time {
	if c == nil {
		return 0
	}
	return c.interval
}

// Add appends one labeled run snapshot. Nil snapshots (runs without a
// registry) are ignored, as is the call on a nil collector.
func (c *Collector) Add(label string, s *Snapshot) {
	if c == nil || s == nil {
		return
	}
	c.runs = append(c.runs, Run{Label: label, Metrics: s})
}

// Report builds the exported document from the collected runs.
func (c *Collector) Report() *Report {
	return &Report{Version: ReportVersion, Interval: c.interval, Runs: c.runs}
}
