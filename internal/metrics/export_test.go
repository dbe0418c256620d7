package metrics

import (
	"bytes"
	"encoding/json"
	"testing"
)

// buildReport assembles one deterministic two-run report, simulating the
// way experiment sweeps feed the collector.
func buildReport() *Report {
	c := NewCollector(100)
	for _, label := range []string{"fig/x/P=1", "fig/x/P=2"} {
		r := New(c.Interval())
		cnt := r.Counter("busy")
		cnt.Add(40, 4)
		cnt.Add(140, 6)
		r.Histogram("lat").Observe(17)
		c.Add(label, r.Snapshot(200))
	}
	return c.Report()
}

func TestReportJSONDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := buildReport().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildReport().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical reports serialized differently")
	}
	// The document must round-trip as JSON and carry the schema version.
	var doc map[string]any
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("report JSON does not parse: %v", err)
	}
	if doc["version"] != float64(ReportVersion) {
		t.Errorf("version = %v, want %d", doc["version"], ReportVersion)
	}
}

func TestReportCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := buildReport().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "label,frame,t_start,t_end,counter,delta\n" +
		"fig/x/P=1,0,0,100,busy,4\n" +
		"fig/x/P=1,1,100,200,busy,6\n" +
		"fig/x/P=2,0,0,100,busy,4\n" +
		"fig/x/P=2,1,100,200,busy,6\n"
	if buf.String() != want {
		t.Errorf("CSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestCollectorNilSafe(t *testing.T) {
	var c *Collector
	c.Add("x", &Snapshot{}) // must not panic
	if c.Interval() != 0 {
		t.Error("nil collector reported an interval")
	}
}

func TestCollectorSkipsNilSnapshots(t *testing.T) {
	c := NewCollector(10)
	c.Add("none", nil)
	if len(c.runs) != 0 {
		t.Error("nil snapshot collected")
	}
}
